"""Execution configuration prediction (paper Sec. 6.2).

"With the two models, the GreenWeb runtime sweeps all possible core and
frequency combinations and selects the one that satisfies the QoS
target with minimal energy."

If no configuration meets the target, the fastest (minimum predicted
latency) configuration is chosen — QoS is favoured over energy, the
same conservative bias AutoGreen applies to its annotations (Sec. 5).

Implementation notes
--------------------
The sweep runs on every prediction, so it is the runtime's hottest
model code.  Two layers keep it cheap without changing a single result
bit (the differential suite pins this):

* the per-platform configuration table is precomputed
  (:meth:`repro.core.energy_model.PowerTable.sweep_table`), so the loop
  reads parallel tuples instead of dicts and ``CpuConfig`` attributes;
* predictions are memoized on ``(model uid, model version, target)``,
  which changes precisely when the inputs may have (see
  :class:`~repro.core.perf_model.ClusterModelSet`).

The sweep is a plain loop on purpose.  At 17 configurations a numpy
version spends its time building arrays and converting scalars, not
computing: over the real sweeps of a w3schools session it took two to
three times as long as the loop, for identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import RuntimeModelError
from repro.core.energy_model import PowerTable
from repro.core.perf_model import ClusterModelSet
from repro.hardware.dvfs import CpuConfig

#: memo entries kept per predictor before the table resets (predictors
#: are per-session; this only bounds pathological target churn)
_MEMO_LIMIT = 8192


@dataclass(frozen=True)
class Prediction:
    """One sweep result: the chosen configuration and its predictions."""

    config: CpuConfig
    latency_us: float
    energy_j: float
    meets_target: bool


class ConfigPredictor:
    """Sweeps the configuration space for the minimum-energy config."""

    def __init__(self, power_table: PowerTable) -> None:
        table = power_table.sweep_table()
        self._configs = table.configs
        self._cluster_names = table.cluster_names
        self._cluster_index = table.cluster_index
        self._freqs_mhz = table.freqs_mhz
        self._busy_power_w = table.busy_power_w
        self._memo: dict = {}

    def predict(
        self, models: ClusterModelSet, target_ms: float
    ) -> Prediction:
        """Choose the ideal configuration for a frame.

        Args:
            models: fitted per-cluster Eq. 1 coefficients.
            target_ms: the frame's operative QoS target.

        Returns:
            The minimum-energy :class:`Prediction` meeting the target,
            or the fastest configuration when none does.

        Raises:
            RuntimeModelError: if no cluster model exists for any
                profiled configuration.
        """
        if target_ms <= 0:
            raise RuntimeModelError(f"non-positive QoS target: {target_ms} ms")
        memo = self._memo
        key = (models._uid, models._version, target_ms)
        cached = memo.get(key)
        if cached is not None:
            return cached

        target_us = target_ms * 1_000.0
        coeffs = [models.get_or_none(name) for name in self._cluster_names]
        prediction = self._predict_python(coeffs, target_us)

        if len(memo) >= _MEMO_LIMIT:
            memo.clear()
        memo[key] = prediction
        return prediction

    def _predict_python(self, coeffs: list, target_us: float) -> Prediction:
        configs = self._configs
        cluster_index = self._cluster_index
        freqs = self._freqs_mhz
        busy_powers = self._busy_power_w
        best: Optional[tuple[int, float, float]] = None
        fastest: Optional[tuple[int, float, float]] = None
        for i in range(len(configs)):
            model = coeffs[cluster_index[i]]
            if model is None:
                continue
            # Same arithmetic (and float association order) as
            # ClusterModelSet.predict_us / PowerTable.frame_energy_j.
            latency = model.t_independent_us + model.n_cycles / freqs[i]
            energy = busy_powers[i] * latency * 1e-6
            if fastest is None or latency < fastest[1]:
                fastest = (i, latency, energy)
            if latency <= target_us and (best is None or energy < best[2]):
                best = (i, latency, energy)
        if fastest is None:
            raise RuntimeModelError(
                "no configuration could be evaluated: missing cluster models"
            )
        i, latency, energy = best if best is not None else fastest
        return Prediction(configs[i], latency, energy, latency <= target_us)
