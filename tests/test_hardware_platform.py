"""Tests for the work model, power model, execution, DVFS, and energy."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.errors import FrequencyError, HardwareError
from repro.hardware import (
    CpuConfig,
    PowerModel,
    WorkUnit,
    odroid_xu_e,
)
from repro.hardware.core import big_cluster_spec, little_cluster_spec
from repro.hardware.dvfs import FREQ_SWITCH_OVERHEAD_US, MIGRATION_OVERHEAD_US
from repro.hardware.execution import ExecutionContext
from repro.sim.tracing import SessionObserver, TraceLog


class TestWorkUnit:
    def test_duration_formula(self):
        # 1600 ref-cycles at 800 MHz, IPC 1.0 -> 2 us, plus 3 us fixed.
        work = WorkUnit(cycles=1600, fixed_us=3.0)
        assert work.duration_us(1.0, 800) == pytest.approx(5.0)

    def test_ipc_penalty(self):
        work = WorkUnit(cycles=900)
        # little (IPC 0.5) at 600 MHz: 900 / (0.5*600) us
        assert work.duration_us(0.5, 600) == pytest.approx(3.0)

    def test_scaling(self):
        work = WorkUnit(cycles=100, fixed_us=10)
        half = work.scaled(0.5)
        assert half.cycles == 50
        assert half.fixed_us == 5

    def test_scale_out_of_range_rejected(self):
        with pytest.raises(HardwareError):
            WorkUnit(10).scaled(1.5)

    def test_negative_rejected(self):
        with pytest.raises(HardwareError):
            WorkUnit(-1)
        with pytest.raises(HardwareError):
            WorkUnit(1, fixed_us=-2)

    def test_addition(self):
        total = WorkUnit(10, 1) + WorkUnit(20, 2)
        assert total.cycles == 30
        assert total.fixed_us == 3

    def test_is_empty(self):
        assert WorkUnit(0, 0).is_empty
        assert not WorkUnit(1, 0).is_empty

    @given(
        st.floats(min_value=0, max_value=1e9),
        st.floats(min_value=0, max_value=1e6),
        st.sampled_from([350, 600, 800, 1800]),
    )
    def test_property_duration_positive_and_monotonic_in_freq(self, cycles, fixed, freq):
        work = WorkUnit(cycles, fixed)
        slow = work.duration_us(1.0, freq)
        fast = work.duration_us(1.0, freq * 2)
        assert slow >= fast >= fixed


class TestPowerModel:
    def test_big_max_power_magnitude(self):
        spec = big_cluster_spec()
        model = PowerModel()
        dyn = model.core_dynamic_w(spec, spec.opps.max)
        # Calibration target: ~1.5 W for one busy A15 at 1.8 GHz.
        assert 1.2 < dyn < 1.8

    def test_little_max_power_magnitude(self):
        spec = little_cluster_spec()
        model = PowerModel()
        dyn = model.core_dynamic_w(spec, spec.opps.max)
        assert 0.05 < dyn < 0.2

    def test_dynamic_power_monotonic_in_frequency(self):
        spec = big_cluster_spec()
        model = PowerModel()
        powers = [model.core_dynamic_w(spec, p) for p in spec.opps]
        assert powers == sorted(powers)

    def test_unpowered_cluster_draws_nothing(self):
        spec = big_cluster_spec()
        model = PowerModel()
        assert model.cluster_power_w(spec, spec.opps.max, busy_cores=2, powered=False) == 0

    def test_idle_cluster_pays_wfi_fraction_of_leakage(self):
        spec = big_cluster_spec()
        model = PowerModel()
        idle = model.cluster_power_w(spec, spec.opps.max, busy_cores=0, powered=True)
        full_leak = model.cluster_static_w(spec, spec.opps.max)
        assert idle == pytest.approx(full_leak * model.wfi_idle_factor)
        assert idle < full_leak

    def test_tradeoff_space_little_beats_big_max_energy(self):
        """The energy-per-work ordering that makes the runtime's choice
        meaningful: little max is cheaper per unit work than big max."""
        model = PowerModel()
        big, little = big_cluster_spec(), little_cluster_spec()
        e_big_max = model.energy_per_mcycle_uj(big, big.opps.max)
        e_little_max = model.energy_per_mcycle_uj(little, little.opps.max)
        assert e_little_max < 0.75 * e_big_max

    def test_busy_cores_clamped_to_cluster_size(self):
        spec = little_cluster_spec()
        model = PowerModel()
        at_4 = model.cluster_power_w(spec, spec.opps.max, busy_cores=4, powered=True)
        at_9 = model.cluster_power_w(spec, spec.opps.max, busy_cores=9, powered=True)
        assert at_4 == at_9


class TestPlatformBasics:
    def test_default_initial_config_is_big_max(self):
        platform = odroid_xu_e()
        assert platform.config == CpuConfig("big", 1800)

    def test_inactive_cluster_gated(self):
        platform = odroid_xu_e()
        assert not platform.cluster("little").powered
        assert platform.cluster("big").powered

    def test_all_configs_count(self):
        # 6 little + 11 big = 17 configurations.
        assert len(odroid_xu_e().all_configs()) == 17

    def test_all_configs_ordered_little_first(self):
        configs = odroid_xu_e().all_configs()
        assert configs[0] == CpuConfig("little", 350)
        assert configs[-1] == CpuConfig("big", 1800)

    def test_unknown_cluster_rejected(self):
        with pytest.raises(HardwareError):
            odroid_xu_e().cluster("medium")

    def test_context_cap(self):
        platform = odroid_xu_e()
        for i in range(4):
            platform.create_context(f"t{i}")
        with pytest.raises(HardwareError):
            platform.create_context("t4")


class TestExecution:
    def test_task_duration_at_big_max(self):
        platform = odroid_xu_e()
        ctx = platform.create_context("main")
        done = []
        # 18000 ref-cycles at 1800 MHz = 10 us.
        ctx.submit(WorkUnit(cycles=18_000), on_complete=lambda t: done.append(platform.kernel.now_us))
        platform.run_for(100)
        assert done == [10]

    def test_fifo_ordering(self):
        platform = odroid_xu_e()
        ctx = platform.create_context("main")
        order = []
        ctx.submit(WorkUnit(cycles=18_000), on_complete=lambda t: order.append("a"))
        ctx.submit(WorkUnit(cycles=18_000), on_complete=lambda t: order.append("b"))
        platform.run_for(100)
        assert order == ["a", "b"]

    def test_queueing_delay_recorded(self):
        platform = odroid_xu_e()
        ctx = platform.create_context("main")
        first = ctx.submit(WorkUnit(cycles=18_000))
        second = ctx.submit(WorkUnit(cycles=18_000))
        platform.run_for(100)
        assert first.queueing_delay_us == 0
        assert second.queueing_delay_us == 10

    def test_zero_work_completes(self):
        platform = odroid_xu_e()
        ctx = platform.create_context("main")
        done = []
        ctx.submit(WorkUnit(0, 0), on_complete=lambda t: done.append(True))
        platform.run_for(1)
        assert done == [True]

    def test_two_contexts_run_in_parallel(self):
        platform = odroid_xu_e()
        main = platform.create_context("main")
        compositor = platform.create_context("compositor")
        done = {}
        main.submit(WorkUnit(cycles=18_000), on_complete=lambda t: done.setdefault("m", platform.kernel.now_us))
        compositor.submit(WorkUnit(cycles=18_000), on_complete=lambda t: done.setdefault("c", platform.kernel.now_us))
        platform.run_for(100)
        assert done == {"m": 10, "c": 10}

    def test_fixed_time_not_scaled_by_frequency(self):
        fast = odroid_xu_e(initial_config=CpuConfig("big", 1800))
        slow = odroid_xu_e(initial_config=CpuConfig("big", 800))
        for platform in (fast, slow):
            ctx = platform.create_context("main")
            ctx.submit(WorkUnit(cycles=0, fixed_us=50))
            platform.run_for(100)
        # Same fixed time regardless of frequency: both finish at 50 us.
        assert fast.kernel.events_fired == slow.kernel.events_fired


class TestDvfs:
    def test_freq_switch_counts_and_overhead(self):
        platform = odroid_xu_e()
        assert platform.set_config(CpuConfig("big", 1000)) is True
        platform.run_for(FREQ_SWITCH_OVERHEAD_US + 1)
        assert platform.config == CpuConfig("big", 1000)
        assert platform.dvfs.freq_switches == 1
        assert platform.dvfs.migrations == 0

    def test_migration_counts(self):
        platform = odroid_xu_e()
        platform.set_config(CpuConfig("little", 600))
        platform.run_for(MIGRATION_OVERHEAD_US + 1)
        assert platform.config == CpuConfig("little", 600)
        assert platform.dvfs.migrations == 1
        assert platform.cluster("big").powered is False
        assert platform.cluster("little").powered is True

    def test_noop_request_returns_false(self):
        platform = odroid_xu_e()
        assert platform.set_config(platform.config) is False
        assert platform.dvfs.switch_count == 0

    def test_config_not_applied_before_overhead(self):
        platform = odroid_xu_e()
        platform.set_config(CpuConfig("big", 900))
        platform.run_for(FREQ_SWITCH_OVERHEAD_US - 10)
        assert platform.config.freq_mhz == 1800

    def test_running_task_slows_down_after_downswitch(self):
        """A task interrupted by a down-switch takes longer overall."""
        platform = odroid_xu_e()
        ctx = platform.create_context("main")
        done = []
        # 1.8M ref-cycles: 1000 us at 1800 MHz, 2250 us at 800 MHz.
        ctx.submit(WorkUnit(cycles=1_800_000), on_complete=lambda t: done.append(platform.kernel.now_us))
        platform.run_for(500)  # halfway through at 1800 MHz
        platform.set_config(CpuConfig("big", 800))
        platform.run_for(10_000)
        # Remaining 0.9M cycles at 800 MHz = 1125 us, plus 100 us stall:
        # completion at 500 + 100 + 1125 = 1725 us.
        assert done == [1725]

    def test_migration_mid_task_rescales_remaining_work(self):
        platform = odroid_xu_e()
        ctx = platform.create_context("main")
        done = []
        ctx.submit(WorkUnit(cycles=1_800_000), on_complete=lambda t: done.append(platform.kernel.now_us))
        platform.run_for(900)  # 90% done at 1800 MHz
        platform.set_config(CpuConfig("little", 600))
        platform.run_for(10_000)
        # Remaining 0.18M ref-cycles on little@600: 180000/(0.5*600) = 600 us
        # after a 20 us stall -> completes at 900 + 20 + 600 = 1520.
        assert done and abs(done[0] - 1520) <= 1

    def test_coalesced_request_mid_switch(self):
        platform = odroid_xu_e()
        platform.set_config(CpuConfig("big", 1000))
        platform.kernel.run_for(10)
        platform.set_config(CpuConfig("big", 1200))  # retarget in flight
        platform.run_for(FREQ_SWITCH_OVERHEAD_US)
        assert platform.config == CpuConfig("big", 1200)
        assert platform.dvfs.freq_switches == 1  # coalesced

    def test_trace_records_switches(self):
        platform = odroid_xu_e(trace=TraceLog())
        platform.set_config(CpuConfig("little", 400))
        platform.run_for(100)
        assert platform.trace.count(category="dvfs", name="migrate") == 1

    def test_switch_freezes_only_the_busy_context(self, monkeypatch):
        platform = odroid_xu_e()
        busy, idle = platform.create_context("busy"), platform.create_context("idle")
        frozen = []
        freeze = ExecutionContext._freeze
        monkeypatch.setattr(
            ExecutionContext, "_freeze",
            lambda context, task: (frozen.append(context.name), freeze(context, task)),
        )
        done = []
        busy.submit(WorkUnit(cycles=1_800_000), on_complete=lambda t: done.append(t.completed_us))
        platform.run_for(500)
        platform.set_config(CpuConfig("big", 800))
        assert frozen == ["busy"] and platform._paused_depth == 1
        assert busy._current._completion_event is None
        platform.run_for(10_000)
        # As in test_running_task_slows_down_after_downswitch.
        assert done == [1725]
        assert frozen == ["busy"] and not idle.busy

    def test_task_submitted_mid_switch_starts_at_the_apply_instant(self):
        platform = odroid_xu_e()
        context = platform.create_context("main")
        platform.set_config(CpuConfig("big", 1000))
        platform.kernel.run_for(10)
        task = context.submit(WorkUnit(cycles=1_000_000))  # 1000 us at 1000 MHz
        assert task.started_us is None and platform.busy_context_count == 0
        platform.run_for(10_000)
        assert task.started_us == FREQ_SWITCH_OVERHEAD_US
        assert task.queueing_delay_us == FREQ_SWITCH_OVERHEAD_US - 10
        assert task.completed_us == FREQ_SWITCH_OVERHEAD_US + 1_000

    def test_re_pause_during_resume_stops_the_resume_loop(self):
        # An idle-exit boost (as the interactive governor's) opens a new
        # switch from inside the resume: the later context stays queued
        # until that switch applies.
        platform = odroid_xu_e()
        first, second = platform.create_context("first"), platform.create_context("second")

        class Boost(SessionObserver):
            def busy_changed(self, time_us, busy_count, previous_count):
                if previous_count == 0 and busy_count > 0:
                    platform.set_config(CpuConfig("big", 1800))

        platform.attach(Boost())
        platform.set_config(CpuConfig("big", 1000))
        a = first.submit(WorkUnit(cycles=1_800_000))
        b = second.submit(WorkUnit(cycles=1_800_000))
        platform.kernel.run_until(FREQ_SWITCH_OVERHEAD_US)
        assert platform.config == CpuConfig("big", 1000)
        assert platform._paused_depth == 1 and platform.dvfs.in_flight
        assert first._current is a and a._completion_event is None
        assert second._current is None and second.queue_depth == 1
        platform.run_for(10_000)
        assert b.started_us == 2 * FREQ_SWITCH_OVERHEAD_US
        # Both run their 1000 us at big@1800 from the second apply.
        assert a.completed_us == b.completed_us == 2 * FREQ_SWITCH_OVERHEAD_US + 1_000


def _platform_in(state):
    """An ODroid platform idle, mid-switch, or under a big-cluster cap,
    with a trace attached."""
    platform = odroid_xu_e(trace=TraceLog())
    platform.create_context("main").submit(WorkUnit(cycles=10_000_000))
    if state == "mid_switch":
        platform.set_config(CpuConfig("big", 1000))
        platform.kernel.run_for(10)
        assert platform.dvfs.in_flight
    elif state == "capped":
        platform.set_frequency_cap("big", 1100)
        platform.run_for(1_000)
        assert platform.config == CpuConfig("big", 1100)
    return platform


def _dvfs_state(platform):
    dvfs = platform.dvfs
    return (platform.config, dvfs.in_flight, dvfs._pending_target, dvfs.switch_count)


class TestConfigTable:
    """Every per-switch question is answered from the platform's one
    configuration table; off-table requests take the slow path, which
    names the fault."""

    def test_applied_configs_are_the_interned_members(self):
        platform = odroid_xu_e()
        table = platform.config_table
        assert platform.all_configs() == list(table.configs)
        assert platform.all_configs() is not platform.all_configs()
        assert platform.config is table.interned[CpuConfig("big", 1800)]
        platform.set_config(CpuConfig("little", 500))
        assert platform.dvfs._apply_event.label == "dvfs->little@500MHz"
        platform.run_for(1_000)
        assert platform.config is table.interned[CpuConfig("little", 500)]

    def test_platforms_share_the_table_but_not_the_power_rows(self):
        first, second = odroid_xu_e(), odroid_xu_e(fast_voltage_regulators=True)
        assert first.config_table is second.config_table
        assert first._power_rows is not second._power_rows
        assert first._power_row is not second._power_row

    @pytest.mark.parametrize("state", ["idle", "mid_switch", "capped"])
    @pytest.mark.parametrize(
        "config, error, match",
        [
            (CpuConfig("medium", 1000), HardwareError, "unknown cluster"),
            (CpuConfig("big", 1050), FrequencyError, "not an operating point"),
            (CpuConfig("little", 1800), FrequencyError, "not an operating point"),
        ],
    )
    def test_off_table_request_raises_and_changes_nothing(self, state, config, error, match):
        platform = _platform_in(state)
        before = _dvfs_state(platform)
        with pytest.raises(error, match=match):
            platform.set_config(config)
        assert _dvfs_state(platform) == before

    @pytest.mark.parametrize("in_flight", [False, True])
    def test_over_cap_request_clamps(self, in_flight):
        platform = _platform_in("mid_switch" if in_flight else "idle")
        platform._freq_caps["big"] = 1150
        assert platform.set_config(CpuConfig("big", 1700)) is True
        assert platform.dvfs._pending_target == CpuConfig("big", 1100)
        platform.run_for(1_000)
        assert platform.config == CpuConfig("big", 1100)
        assert platform.set_config(CpuConfig("big", 1800)) is False

    def test_mid_switch_retarget_to_applied_config_cancels_the_switch(self):
        platform = _platform_in("mid_switch")
        task = platform.contexts[0]._current
        assert platform._paused_depth == 1 and task._completion_event is None
        assert platform.set_config(CpuConfig("big", 1800)) is False
        assert not platform.dvfs.in_flight
        assert platform.dvfs._pending_target is None
        assert platform._paused_depth == 0 and task._completion_event is not None
        platform.run_for(1_000)
        assert platform.config == CpuConfig("big", 1800)
        assert platform.trace.count(category="config", name="applied") == 0


class TestEnergy:
    def test_idle_energy_is_wfi_leakage_plus_floor(self):
        platform = odroid_xu_e()
        platform.run_for(1_000_000)  # one second fully idle
        model = platform.power_model
        expected = (
            model.cluster_static_w(
                platform.cluster("big").spec, platform.cluster("big").opp
            )
            * model.wfi_idle_factor
            + model.deep_idle_w
        )
        assert platform.meter.total_j == pytest.approx(expected, rel=1e-6)

    def test_busy_energy_includes_dynamic(self):
        platform = odroid_xu_e()
        ctx = platform.create_context("main")
        ctx.submit(WorkUnit(cycles=1_800_000))  # 1000 us busy
        platform.run_for(1000)
        spec = platform.cluster("big").spec
        opp = platform.cluster("big").opp
        expected = (
            platform.power_model.core_dynamic_w(spec, opp)
            + platform.power_model.cluster_static_w(spec, opp)
            + platform.power_model.deep_idle_w
        ) * 1e-3
        assert platform.meter.total_j == pytest.approx(expected, rel=1e-6)

    def test_little_cheaper_than_big_for_same_wall_time(self):
        joules = {}
        for cluster, freq in (("big", 1800), ("little", 600)):
            platform = odroid_xu_e(initial_config=CpuConfig(cluster, freq))
            ctx = platform.create_context("main")
            ctx.submit(WorkUnit(cycles=100_000))
            platform.run_for(10_000)
            joules[cluster] = platform.meter.total_j
        assert joules["little"] < joules["big"] * 0.6


class TestUtilization:
    def test_busy_integral_tracks_work(self):
        platform = odroid_xu_e()
        ctx = platform.create_context("main")
        ctx.submit(WorkUnit(cycles=1_800_000))  # 1000 us busy
        platform.run_for(2_000)
        assert platform.any_busy_us() == pytest.approx(1000, abs=1)

    def test_parallel_contexts_double_busy_integral(self):
        """Two contexts busy at once count their shared wall time once."""
        platform = odroid_xu_e()
        for name in ("a", "b"):
            platform.create_context(name).submit(WorkUnit(cycles=1_800_000))
        platform.run_for(2_000)
        assert platform.any_busy_us() == pytest.approx(1000, abs=1)


def _reference_request(platform, config):
    """``(returned, in flight after, pending target after)`` for
    ``DvfsController.request(config)`` when it validates, clamps and
    compares with no shortcut: the reference the no-op early return
    must agree with."""
    dvfs = platform.dvfs
    clamped = dvfs.clamp(config)
    if dvfs.in_flight:
        cancels = clamped == platform.config and dvfs._pending_target != clamped
    else:
        cancels = clamped == platform.config
    return (False, False, None) if cancels else (True, True, clamped)


class TestStoredControlState:
    """The applied config, the power memo and the no-op DVFS shortcut
    work from stored state; a seeded random walk over requests, caps
    and busy/idle churn checks each against an independent recomputation."""

    def _check_state(self, platform):
        active = platform.active_cluster
        assert platform.config == CpuConfig(active.name, active.freq_mhz)
        rows = []
        for name in platform.cluster_names:
            cluster = platform.cluster(name)
            busy = platform.busy_context_count if name == active.name else 0
            rows.append((cluster.spec, cluster.opp, busy, cluster.powered))
        expected = platform.power_model.breakdown(rows)
        assert platform.current_power() == expected
        assert platform.meter.current_power_w == expected.total_w

    @pytest.mark.parametrize("seed", range(4))
    def test_random_walk_matches_recomputation(self, seed):
        rng = random.Random(seed)
        platform = odroid_xu_e()
        configs = platform.all_configs()
        contexts = [platform.create_context(f"ctx{i}") for i in range(4)]
        check_state = self._check_state

        class Checker(SessionObserver):
            def busy_changed(self, time_us, busy_count, previous_count):
                assert time_us == platform.kernel.now_us
                assert busy_count == platform.busy_context_count == previous_count + (
                    1 if busy_count > previous_count else -1
                )
                check_state(platform)

        platform.attach(Checker())
        same_config_checks = {"in_flight": 0, "over_cap": 0}

        for _ in range(600):
            step = rng.randrange(7)
            if step == 0:
                platform.set_config(rng.choice(configs))
            elif step == 1:
                cluster = rng.choice(platform.cluster_names)
                frequencies = platform.cluster(cluster).spec.opps.frequencies
                cap = rng.choice([None, rng.choice(frequencies), min(frequencies) - 1])
                platform.set_frequency_cap(cluster, cap)
            elif step == 2:
                # A cap that lands without its down-switch: the applied
                # config sits above it with no switch in flight.
                current = platform.config
                lower = [f for f in platform.cluster(current.cluster).spec.opps.frequencies
                         if f < current.freq_mhz]
                if lower:
                    platform._freq_caps[current.cluster] = rng.choice(lower)
            elif step in (3, 4):
                rng.choice(contexts).submit(WorkUnit(cycles=rng.randrange(0, 400_000)))
            elif step == 5:
                platform.run_for(rng.randrange(0, 250))
            if step in (2, 6) or rng.random() < 0.3:
                current = platform.config
                cap = platform.frequency_cap(current.cluster)
                in_flight = platform.dvfs.in_flight
                same_config_checks["in_flight"] += in_flight
                same_config_checks["over_cap"] += (
                    not in_flight and cap is not None and cap < current.freq_mhz
                )
                expected = _reference_request(platform, current)
                returned = platform.set_config(current)
                dvfs = platform.dvfs
                assert (returned, dvfs.in_flight, dvfs._pending_target) == expected
            self._check_state(platform)

        assert min(same_config_checks.values()) > 0
