"""Tests for the target sweep (``run_target_sweep``): the one sweep that
re-annotates the stylesheet per point, so it cannot run as a grid fleet
cell."""

from dataclasses import astuple

import pytest

from repro.core.language import extract_annotations
from repro.core.qos import QoSTarget
from repro.errors import EvaluationError
from repro.evaluation import target_sweep
from repro.web.css.parser import parse_stylesheet


#: ``run_target_sweep(app, (8.0, 33.3), seed=0)`` on every sweepable app:
#: (target_ms, active_energy_j, mean_violation_pct, frames, big_share).
PINNED_SWEEPS = {
    "cnet": [
        (8.0, 1.9023303062255421, 4.530391251613116, 218, 0.9999732053908611),
        (33.3, 0.7678145300048854, 2.0045160305223373, 156, 0.47493280858071524),
    ],
    "w3schools": [
        (8.0, 2.4006044383331737, 13.381025243336515, 275, 0.9999798938394724),
        (33.3, 0.6678099852907056, 7.788899288743238, 156, 0.18190720777087438),
    ],
    "goo_ne_jp": [
        (8.0, 1.3601151925252337, 3.66730721630247, 186, 0.9999681669072719),
        (33.3, 0.4091133475174795, 3.291284541506993, 116, 0.18825008736604848),
    ],
}


class TestTargetSweep:
    def test_unknown_app_rejected(self):
        from repro.evaluation.target_sweep import run_target_sweep

        with pytest.raises(EvaluationError):
            run_target_sweep("todo")  # single-frame app: not sweepable

    def test_invalid_target_rejected(self):
        from repro.evaluation.target_sweep import run_target_sweep

        with pytest.raises(EvaluationError):
            run_target_sweep("cnet", targets_ms=(0,))

    def test_two_point_sweep_orders_energy(self):
        from repro.evaluation.target_sweep import run_target_sweep

        tight, loose = run_target_sweep("goo_ne_jp", targets_ms=(12.0, 60.0))
        assert tight.target_ms == 12.0
        assert loose.active_energy_j < tight.active_energy_j
        assert loose.big_share <= tight.big_share

    @pytest.mark.parametrize("app", sorted(PINNED_SWEEPS))
    def test_points_pinned(self, app):
        points = target_sweep.run_target_sweep(app, (8.0, 33.3), seed=0)
        assert [astuple(point) for point in points] == PINNED_SWEEPS[app]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
    def test_every_target_checked_before_any_point_runs(self, monkeypatch, bad):
        parsed = []
        monkeypatch.setattr(
            target_sweep, "parse_stylesheet", lambda css: parsed.append(css)
        )
        with pytest.raises(EvaluationError, match="finite and > 0"):
            target_sweep.run_target_sweep("cnet", targets_ms=(8.0, bad))
        assert parsed == []

    @pytest.mark.parametrize("target_ms", [16.666666, 1e6, 1e-5, 0.1 + 0.2])
    def test_target_annotated_exactly(self, monkeypatch, target_ms):
        sheets = []

        def spy(css):
            sheets.append(parse_stylesheet(css))
            return sheets[-1]

        monkeypatch.setattr(target_sweep, "parse_stylesheet", spy)
        [point] = target_sweep.run_target_sweep("cnet", targets_ms=(target_ms,))
        [annotation] = extract_annotations(sheets[0])
        assert annotation.spec.target == QoSTarget(target_ms, target_ms)
        assert point.target_ms == target_ms
