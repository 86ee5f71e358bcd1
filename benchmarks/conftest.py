"""Shared helpers for the per-figure benchmark harnesses.

Each benchmark regenerates one of the paper's tables/figures, prints
the rows, and writes them to ``benchmarks/results/<name>.txt`` so the
series survive pytest's output capturing.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.evaluation.experiments import run_fig10_full_interactions
from repro.evaluation.runner import SessionExecution
from repro.workloads.registry import build_app

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_figure():
    """Persist + echo a rendered figure. Usage:
    ``record_figure("fig9", text)``."""

    def _record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return _record


@pytest.fixture(scope="session")
def fig10_rows():
    """Fig. 10's full-interaction matrix, run once per pytest session:
    Figs. 11 and 12 are projections of its GreenWeb-I/U runs, so the
    three benches share it and each times only its own step."""
    return run_fig10_full_interactions()


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing
    (full figure matrices are seconds-long; statistical repetition
    belongs to the simulator's own determinism, not wall time)."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def greenweb_execution(app, scenario, trace=False, fast_voltage_regulators=False):
    """``app``'s micro trace under GreenWeb as a prepared
    :class:`SessionExecution` (seed 0, 4 s settle), not yet run, so
    folds can ``platform.attach`` first.  Ablations that scan
    the trace ask for ``trace=True``."""
    return SessionExecution(
        build_app(app), "greenweb", scenario, trace_kind="micro", trace=trace,
        fast_voltage_regulators=fast_voltage_regulators,
    )


def greenweb_session(app, scenario, trace=False, fast_voltage_regulators=False):
    """Run :func:`greenweb_execution` and return the finished
    :class:`SessionExecution` with its :class:`RunResult`."""
    execution = greenweb_execution(app, scenario, trace, fast_voltage_regulators)
    execution.run()
    return execution, execution.finish()
