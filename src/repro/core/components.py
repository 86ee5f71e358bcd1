"""The GreenWeb runtime's interfaced components.

:class:`~repro.core.runtime.GreenWebRuntime` used to be a monolith;
its four responsibilities now live behind explicit seams so ablation
variants are policy-spec parameters instead of monkeypatches:

* :class:`DvfsProfiler` — the Sec. 6.2 online profiling state machine:
  drive each annotated key through two (or four, with
  ``profile_both_clusters``) profiling runs and fit the Eq. 1
  frequency/latency models.
* :class:`~repro.core.predictor.ConfigPredictor` — the configuration
  sweep (already its own module): cheapest config meeting the target.
* :class:`FeedbackController` — the Sec. 6.3 reactive loop: boost on
  violation, conserve on over-prediction, EWMA model refinement,
  recalibration back to profiling after repeated mispredictions.
* :class:`IdleManager` — the Sec. 3.2 energy-conservation rule: when no
  input demands performance, drop to the idle configuration after a
  grace period.

Each component owns the validation of its own knobs; the runtime wires
them together and calls them directly.  :class:`DvfsProfiler` is the
one profiling path for every model-based policy: the annotation-free
:class:`~repro.core.ebs.EbsGovernor` runs its keys through the same
phases and fits, so this module is the only caller of
:func:`~repro.core.perf_model.fit_dvfs_model`.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.perf_model import fit_dvfs_model
from repro.core.qos import QoSSpec, QoSType
from repro.core.runtime_state import RuntimeStats, _KeyState, _Phase
from repro.errors import RuntimeModelError
from repro.hardware.dvfs import CpuConfig
from repro.hardware.platform import MobilePlatform


class DvfsProfiler:
    """Online DVFS profiling + Eq. 1 model fitting (paper Sec. 6.2).

    The profile cluster is the fastest one (big on the paper's
    platform); other clusters' models are derived through the
    statically profiled IPC ratios.  Single-cluster platforms (paper
    Sec. 10's "a runtime leveraging only a single big (or little) core
    capable of DVFS") simply have no derivations.

    Args:
        platform: the hardware being profiled.
        profile_both_clusters: four-run mode ("we build performance
            models for big and little cores separately", Sec. 6.2) —
            the secondary cluster gets its own two profiling runs
            instead of an IPC-derived model.
    """

    def __init__(
        self, platform: MobilePlatform, profile_both_clusters: bool = False
    ) -> None:
        self.platform = platform
        self.profile_both_clusters = profile_both_clusters

        cluster_names = platform.cluster_names
        self.profile_cluster = platform.config_table.fastest_cluster
        profile_spec = platform.cluster(self.profile_cluster).spec
        self.fmax = CpuConfig(self.profile_cluster, profile_spec.opps.max.freq_mhz)
        self.fmin = CpuConfig(self.profile_cluster, profile_spec.opps.min.freq_mhz)
        #: cluster -> cycle scale factor vs. the profile cluster
        self.cycle_factors: dict[str, float] = {
            name: profile_spec.ipc_factor / platform.cluster(name).spec.ipc_factor
            for name in cluster_names
            if name != self.profile_cluster
        }
        self.secondary_clusters = list(self.cycle_factors)
        if profile_both_clusters and len(self.secondary_clusters) != 1:
            raise RuntimeModelError(
                "profile_both_clusters requires exactly two clusters"
            )
        if self.secondary_clusters:
            secondary = self.secondary_clusters[0]
            secondary_spec = platform.cluster(secondary).spec
            self.secondary_fmax = CpuConfig(secondary, secondary_spec.opps.max.freq_mhz)
            self.secondary_fmin = CpuConfig(secondary, secondary_spec.opps.min.freq_mhz)
        else:
            self.secondary_fmax = self.secondary_fmin = None

    # ------------------------------------------------------------------
    @staticmethod
    def frames_needed(spec: QoSSpec) -> int:
        """Frames per profiling phase: continuous events have plenty of
        frames, so three are used (min-aggregated) to reject batching
        noise; a single event costs one whole user interaction per
        profiling frame, so one must do (the paper's "two profiling
        runs" for single events, e.g. MSN in Sec. 7.2)."""
        return 3 if spec.qos_type is QoSType.CONTINUOUS else 1

    def phase_config(self, state: _KeyState) -> Optional[CpuConfig]:
        """The pinned configuration a profiling phase demands, or None
        once the key's models are fitted (STABLE: predict instead)."""
        if state.phase is _Phase.PROFILE_MAX:
            return self.fmax
        if state.phase is _Phase.PROFILE_MIN:
            return self.fmin
        if state.phase is _Phase.PROFILE_LITTLE_MAX:
            return self.secondary_fmax
        if state.phase is _Phase.PROFILE_LITTLE_MIN:
            return self.secondary_fmin
        return None

    def observe(self, state: _KeyState, spec: QoSSpec, observed_us: float) -> bool:
        """Feed one observed frame latency to the profiling state
        machine.  Returns True if the observation belonged to a
        profiling phase (consumed here), False in STABLE (the feedback
        controller's turf)."""
        if state.phase is _Phase.PROFILE_MAX:
            state.profile_buffer.append(observed_us)
            if len(state.profile_buffer) >= self.frames_needed(spec):
                # The minimum over the phase's frames rejects additive
                # queueing/batching noise that a single sample picks up.
                state.profile_sample = (
                    self.fmax.freq_mhz,
                    min(state.profile_buffer),
                )
                state.profile_buffer = []
                state.phase = _Phase.PROFILE_MIN
        elif state.phase is _Phase.PROFILE_MIN:
            state.profile_buffer.append(observed_us)
            if len(state.profile_buffer) >= self.frames_needed(spec):
                self.finish_big_profiling(state, min(state.profile_buffer))
                state.profile_buffer = []
        elif state.phase is _Phase.PROFILE_LITTLE_MAX:
            state.profile_buffer.append(observed_us)
            if len(state.profile_buffer) >= self.frames_needed(spec):
                state.profile_sample = (
                    self.secondary_fmax.freq_mhz,
                    min(state.profile_buffer),
                )
                state.profile_buffer = []
                state.phase = _Phase.PROFILE_LITTLE_MIN
        elif state.phase is _Phase.PROFILE_LITTLE_MIN:
            state.profile_buffer.append(observed_us)
            if len(state.profile_buffer) >= self.frames_needed(spec):
                self.finish_little_profiling(state, min(state.profile_buffer))
                state.profile_buffer = []
        else:
            return False
        return True

    def finish_big_profiling(self, state: _KeyState, observed_min_us: float) -> None:
        assert state.profile_sample is not None
        fmax_mhz, latency_max_us = state.profile_sample
        profile_model = fit_dvfs_model(
            fmax_mhz, latency_max_us, self.fmin.freq_mhz, observed_min_us
        )
        state.models.set(self.profile_cluster, profile_model)
        state.profile_sample = None
        if self.profile_both_clusters:
            # Four-run mode: continue profiling on the secondary cluster
            # instead of deriving its model.
            state.phase = _Phase.PROFILE_LITTLE_MAX
            return
        # Two-run mode: derive the other clusters' models through the
        # statically profiled IPC ratios.
        for cluster, factor in self.cycle_factors.items():
            state.models.set(cluster, profile_model.scaled_cycles(factor))
        state.phase = _Phase.STABLE

    def finish_little_profiling(self, state: _KeyState, observed_min_us: float) -> None:
        assert state.profile_sample is not None
        fmax_mhz, latency_max_us = state.profile_sample
        secondary = self.secondary_clusters[0]
        secondary_model = fit_dvfs_model(
            fmax_mhz, latency_max_us, self.secondary_fmin.freq_mhz, observed_min_us
        )
        state.models.set(secondary, secondary_model)
        state.phase = _Phase.STABLE
        state.profile_sample = None


class FeedbackController:
    """Reactive learning from observed frame latencies (paper Sec. 6.3).

    Args:
        profiler: the key's :class:`DvfsProfiler` (model derivation
            topology for EWMA updates, and the phase to recalibrate to).
        stats: the shared :class:`RuntimeStats` counter block.
        misprediction_tolerance: relative error above which a
            prediction counts as a miss.
        recalibration_threshold: consecutive misses before the key is
            sent back to profiling.
        ewma_model_update: continuously refine cycle counts from
            stable-phase observations ("fine-tune the prediction").
        ewma_alpha: blend weight for the refinement.
        surge_aware: predict from a high percentile of recent cycle
            counts instead of the EWMA mean (Sec. 7.2/8 made concrete).
        surge_percentile: which percentile governs under surge_aware.
        surge_window: how many recent observations the percentile sees.
    """

    def __init__(
        self,
        profiler: DvfsProfiler,
        stats: RuntimeStats,
        misprediction_tolerance: float = 0.30,
        recalibration_threshold: int = 3,
        ewma_model_update: bool = True,
        ewma_alpha: float = 0.30,
        surge_aware: bool = False,
        surge_percentile: float = 0.9,
        surge_window: int = 12,
    ) -> None:
        if not 0 < misprediction_tolerance < 1:
            raise RuntimeModelError("misprediction tolerance must be in (0, 1)")
        if recalibration_threshold < 1:
            raise RuntimeModelError("recalibration threshold must be >= 1")
        if not 0.5 <= surge_percentile <= 1.0:
            raise RuntimeModelError("surge percentile must be in [0.5, 1]")
        if surge_window < 2:
            raise RuntimeModelError("surge window must be >= 2")
        self.profiler = profiler
        self.stats = stats
        self.misprediction_tolerance = misprediction_tolerance
        self.recalibration_threshold = recalibration_threshold
        self.ewma_model_update = ewma_model_update
        self.ewma_alpha = ewma_alpha
        self.surge_aware = surge_aware
        self.surge_percentile = surge_percentile
        self.surge_window = surge_window

    def feedback(self, state: _KeyState, observed_us: float, target_us: float) -> None:
        if state.last_requested is None:
            return
        requested_config, predicted_us = state.last_requested
        predicted_us = max(predicted_us, 1.0)
        relative_error = abs(observed_us - predicted_us) / predicted_us

        if observed_us > target_us:
            # Under-prediction violated QoS: step up one level (next
            # frequency, or little-to-big migration at the cluster edge).
            state.boost += 1
            state.overpredict_streak = 0
            self.stats.boosts_up += 1
            self.stats.violations_fed_back += 1
        elif observed_us < predicted_us * (1.0 - self.misprediction_tolerance):
            # Apparent over-prediction.  A single fast frame can be an
            # artifact (the event may have executed at a faster
            # leftover configuration, e.g. during the idle-grace window
            # of a previous event), so require two in a row before
            # conserving with a step-down.
            state.overpredict_streak += 1
            if state.overpredict_streak >= 2 and state.boost > -3:
                state.boost -= 1
                state.overpredict_streak = 0
                self.stats.boosts_down += 1
        else:
            state.overpredict_streak = 0

        if self.ewma_model_update and observed_us > 0:
            self.ewma_update(state, requested_config, observed_us)

        if relative_error > self.misprediction_tolerance:
            state.consecutive_mispredictions += 1
            if state.consecutive_mispredictions > self.recalibration_threshold:
                state.phase = _Phase.PROFILE_MAX
                state.consecutive_mispredictions = 0
                state.boost = 0
                state.recalibrations += 1
                self.stats.recalibrations += 1
        else:
            state.consecutive_mispredictions = 0

    def ewma_update(
        self, state: _KeyState, config: CpuConfig, observed_us: float
    ) -> None:
        """The paper's "fine-tune the prediction": continuously refine
        the cycle count from stable-phase observations."""
        model = state.models.get(config.cluster)
        residual_us = observed_us - model.t_independent_us
        if residual_us <= 0:
            return
        observed_cycles = residual_us * config.freq_mhz
        blended = (1 - self.ewma_alpha) * model.n_cycles + self.ewma_alpha * observed_cycles
        if self.surge_aware:
            history = state.recent_cycles.setdefault(config.cluster, [])
            history.append(observed_cycles)
            del history[: -self.surge_window]
            ordered = sorted(history)
            rank = max(0, min(len(ordered) - 1,
                              int(self.surge_percentile * len(ordered))))
            blended = max(blended, ordered[rank])
        updated = model.with_cycles(blended)
        state.models.set(config.cluster, updated)
        profiler = self.profiler
        if config.cluster == profiler.profile_cluster and not profiler.profile_both_clusters:
            for cluster, factor in profiler.cycle_factors.items():
                state.models.set(cluster, updated.scaled_cycles(factor))


class IdleManager:
    """Drop to the idle configuration when nothing demands performance
    (paper Sec. 3.2's "post-frame work executes in low-power mode").

    Args:
        platform: actuation target.
        idle_config: the low-power configuration to park on.
        idle_grace_ms: hysteresis before dropping — input streams
            (finger moves at ~60 Hz) complete event-by-event, and
            dropping between samples would thrash the DVFS actuator.
        has_demand: zero-arg predicate: does any live input still
            demand performance?  Checked again when the grace timer
            fires, so a new input cancels the drop.
        stats: the shared :class:`RuntimeStats` counter block.
    """

    def __init__(
        self,
        platform: MobilePlatform,
        idle_config: CpuConfig,
        idle_grace_ms: float,
        has_demand: Callable[[], bool],
        stats: RuntimeStats,
    ) -> None:
        self.platform = platform
        self.idle_config = idle_config
        self.idle_grace_us = max(0, int(idle_grace_ms * 1_000))
        self._has_demand = has_demand
        self.stats = stats
        self._idle_event = None

    def maybe_go_idle(self) -> None:
        if self._has_demand():
            return
        if self.idle_grace_us == 0:
            self.drop_to_idle()
            return
        if self._idle_event is not None and self._idle_event.pending:
            return
        self._idle_event = self.platform.kernel.schedule_in(
            self.idle_grace_us, self.drop_to_idle, label="greenweb-idle"
        )

    def drop_to_idle(self) -> None:
        if self._has_demand():
            return
        current = self.platform.config
        # If already on the little cluster, stay put: the leakage gap
        # between little operating points is negligible, and avoiding
        # the down-switch halves configuration churn for workloads whose
        # predicted config is already little (Fig. 12's "modest
        # switching" behaviour).
        if current.cluster == self.idle_config.cluster:
            return
        self.stats.idle_drops += 1
        self.platform.set_config(self.idle_config)

    def cancel_pending(self) -> None:
        if self._idle_event is not None and self._idle_event.pending:
            self._idle_event.cancel()
        self._idle_event = None
