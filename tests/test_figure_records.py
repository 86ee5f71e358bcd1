"""The cheap figure records, regenerated and compared byte for byte.

``benchmarks/`` rewrites ``benchmarks/results/<name>.txt`` from the
same ``run_*``/``render_*`` calls used here; these three records take
about a second to regenerate, so tier-1 checks that the checked-in text
is still what the program produces.  A change that moves a paper
number fails here until the record is re-generated (``pytest
benchmarks``) and the change says why.
"""

import pathlib

import pytest

from repro.evaluation.analysis import run_tradeoff_space
from repro.evaluation.experiments import run_fig9_microbenchmarks, run_table3_characteristics
from repro.evaluation.report import render_fig9, render_table3, render_tradeoff_space
from repro.evaluation.runner import run_workload

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"

RECORDS = {
    "table3": lambda: render_table3(run_table3_characteristics()),
    "fig9_micro": lambda: render_fig9(run_fig9_microbenchmarks()),
    "tradeoff_space": lambda: render_tradeoff_space(
        run_tradeoff_space("cnet"),
        run_workload("cnet", "greenweb", "imperceptible", "micro"),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_matches_checked_in_text(name):
    assert RECORDS[name]() + "\n" == (RESULTS / f"{name}.txt").read_text()


def _quoted_parts() -> list[str]:
    """Every fenced block of ``EXPERIMENTS.md``, split at blank lines
    (a block may quote several records back to back)."""
    text = (RESULTS.parent.parent / "EXPERIMENTS.md").read_text()
    parts = []
    for block in text.split("```")[1::2]:
        parts.extend(part.strip("\n") for part in block.split("\n\n") if part.strip())
    return parts


def test_experiments_quotes_match_records():
    """Each quoted part appears verbatim, on whole lines, in some
    record, so a re-record that leaves a stale quote fails here.
    Records carry no trailing blanks (the renderers strip them), so
    lines compare exactly."""
    records = ["\n" + path.read_text() for path in sorted(RESULTS.glob("*.txt"))]
    parts = _quoted_parts()
    assert len(parts) >= 13
    stale = [
        part for part in parts
        if not any("\n" + part + "\n" in record for record in records)
    ]
    assert not stale, "EXPERIMENTS.md quotes no record holds:\n" + "\n---\n".join(stale)
