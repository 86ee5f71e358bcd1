"""Differential parity: every cell against its checked-in golden.

The contract: every cell must reproduce the checked-in golden
fingerprints
(``tests/data/batch_parity_fingerprints.json``, regenerated only by
``scripts/gen_parity_fingerprints.py`` after an intentional
result-affecting change) byte for byte — for every application, every
builtin governor, and both trace levels: ``gated`` cells run through
:func:`repro.evaluation.runner.run_workload_job`, ``full`` cells
through ``SessionExecution`` with a retained trace (see
``tests.conftest.run_cell``).  CI runs this directory once, slow sweep
included.

The full 144-cell sweep is marked ``slow``; a quick cross-section runs
with the default suite.
"""

import hashlib
import json

import pytest

from repro.evaluation.runner import GOVERNORS
from repro.workloads.registry import APP_NAMES
from tests.conftest import run_cell

TRACE_LEVELS = ("full", "gated")

#: Small cross-section for the fast suite: every governor appears at
#: least once, both trace levels appear, several distinct apps.
QUICK_CELLS = (
    ("bbc", "greenweb", "full"),
    ("amazon", "ebs", "gated"),
    ("msn", "interactive", "full"),
    ("paperjs", "perf", "gated"),
    ("todo", "powersave", "full"),
    ("lzma_js", "ondemand", "gated"),
)


def canonical(result: dict) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def fingerprint(result: dict) -> str:
    return hashlib.sha256(canonical(result).encode("utf-8")).hexdigest()


def make_job(base: dict, app: str, governor: str) -> dict:
    return {
        "app": app,
        "governor": governor,
        "scenario": base["scenario"],
        "trace_kind": base["trace_kind"],
        "seed": base["seed"],
        "settle_s": base["settle_s"],
    }


class TestQuickCrossSection:
    def test_cells_match_goldens(self, parity_goldens):
        base = parity_goldens["workload"]
        for app, governor, level in QUICK_CELLS:
            result = run_cell(make_job(base, app, governor), level)
            golden = parity_goldens["cells"][f"{app}:{governor}:{level}"]
            assert fingerprint(result) == golden


@pytest.mark.slow
class TestFullSweep:
    def test_every_cell_matches_golden(self, parity_goldens):
        """All 12 apps x 6 builtin governors x 2 trace levels reproduce
        their checked-in goldens."""
        base = parity_goldens["workload"]
        cells = [
            (app, governor, level)
            for app in APP_NAMES
            for governor in GOVERNORS
            for level in TRACE_LEVELS
        ]
        assert len(cells) == len(parity_goldens["cells"])
        mismatches = []
        for app, governor, level in cells:
            key = f"{app}:{governor}:{level}"
            result = run_cell(make_job(base, app, governor), level)
            if fingerprint(result) != parity_goldens["cells"][key]:
                mismatches.append(f"{key}: does not match golden")
        assert not mismatches, "\n".join(mismatches)
