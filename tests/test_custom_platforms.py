"""Tests for GreenWeb on non-Exynos platform topologies (paper Sec. 10:
the runtime design generalises to other hardware, including a single
DVFS-capable cluster).  EBS profiles through the same ``DvfsProfiler``,
so it runs on the same topologies."""

import dataclasses

import pytest

from repro.browser import Browser, Page
from repro.core import AnnotationRegistry, GreenWebRuntime
from repro.core.ebs import EbsGovernor
from repro.core.governors import config_capacity
from repro.core.runtime import _Phase
from repro.errors import RuntimeModelError
from repro.hardware import CpuConfig, MobilePlatform, odroid_xu_e
from repro.hardware.core import ClusterSpec, big_cluster_spec, little_cluster_spec
from repro.hardware.frequency import OperatingPoint, OppTable
from repro.scenarios import build_live_scenario
from repro.sim.tracing import TraceLog
from repro.web import Callback, parse_html

MARKUP = "<style>#btn:QoS { onclick-qos: single, short; }</style><div id='btn'></div>"


def single_cluster_platform() -> MobilePlatform:
    """Sec. 10: "a single big (or little) core capable of DVFS"."""
    return MobilePlatform(cluster_specs=[big_cluster_spec()])


def tri_cluster_platform() -> MobilePlatform:
    """A modern prime/big/little topology, with a trace attached."""
    prime = ClusterSpec(
        name="prime", microarchitecture="X-class", core_count=1,
        ipc_factor=1.4, ceff_nf=0.9, leakage_w_per_v=0.35,
        opps=OppTable([OperatingPoint(f, 0.8 + f / 10_000) for f in (1500, 2000, 2500)]),
    )
    return MobilePlatform(
        cluster_specs=[big_cluster_spec(), little_cluster_spec(), prime],
        trace=TraceLog(),
    )


def interleaved_platform() -> MobilePlatform:
    """A mid cluster whose capacities interleave with the big
    cluster's, so capacity order differs from ``all_configs()`` order."""
    mid = ClusterSpec(
        name="mid", microarchitecture="A-mid", core_count=2,
        ipc_factor=0.8, ceff_nf=0.3, leakage_w_per_v=0.1,
        opps=OppTable([OperatingPoint(f, 0.8 + f / 10_000) for f in (600, 1000, 1400)]),
    )
    return MobilePlatform(cluster_specs=[big_cluster_spec(), mid])


@pytest.mark.parametrize(
    "build", [odroid_xu_e, single_cluster_platform, tri_cluster_platform, interleaved_platform]
)
def test_capacity_ladder_is_all_configs_by_capacity(build):
    platform = build()
    table = platform.config_table
    expected = sorted(platform.all_configs(), key=lambda c: config_capacity(platform, c))
    assert list(platform.config_table.ladder) == expected
    assert table.capacities == tuple(config_capacity(platform, c) for c in expected)
    assert [table.rank[c] for c in expected] == list(range(len(expected)))


def test_interleaved_ladder_differs_from_all_configs_order():
    platform = interleaved_platform()
    assert list(platform.config_table.ladder) != platform.all_configs()


def run_taps(platform, count=4, policy=None):
    """Tap ``#btn`` ``count`` times under ``policy`` (default: a
    GreenWeb runtime built from the page's annotations)."""
    document, sheet = parse_html(MARKUP)
    page = Page(name="t", document=document, stylesheet=sheet)
    runtime = policy or GreenWebRuntime(
        platform,
        AnnotationRegistry.from_stylesheet(sheet),
        build_live_scenario("imperceptible", platform),
    )
    browser = Browser(platform, page, policy=runtime)
    btn = document.get_element_by_id("btn")
    btn.add_event_listener(
        "click", Callback(lambda ctx: (ctx.do_work(800_000), ctx.mark_dirty(0.5)) and None)
    )
    records = []
    for _ in range(count):
        records.append(browser.dispatch_event("click", btn))
        browser.run_until_quiescent()
        platform.run_for(300_000)
    return runtime, browser, records


class TestSingleClusterPlatform:
    def test_runtime_operates_with_dvfs_only(self):
        platform = single_cluster_platform()
        runtime, browser, msgs = run_taps(platform)
        assert all(browser.tracker.record(m.uid).frame_count == 1 for m in msgs)
        # Stable phase reached; prediction happens over big-only configs.
        assert runtime.key_state_snapshot()["#btn@click"] == "stable"
        assert runtime.profiler.profile_cluster == "big"
        assert runtime.profiler.secondary_clusters == []
        assert runtime.idle_manager.idle_config == CpuConfig("big", 800)

    def test_stable_taps_run_below_peak(self):
        platform = single_cluster_platform()
        runtime, browser, msgs = run_taps(platform, count=5)
        last = runtime._keys["#btn@click"].last_prediction
        # A light tap against 100 ms fits far below 1.8 GHz.
        assert last.config.freq_mhz < 1800
        assert last.meets_target

    def test_both_cluster_profiling_rejected(self):
        platform = single_cluster_platform()
        with pytest.raises(RuntimeModelError):
            GreenWebRuntime(
                platform,
                AnnotationRegistry(),
                build_live_scenario("imperceptible", platform),
                profile_both_clusters=True,
            )


class TestTriClusterPlatform:
    def test_table_names_fastest_and_slowest_cluster(self):
        table = tri_cluster_platform().config_table
        assert table.fastest_cluster == "prime"  # 1.4 * 2500
        assert table.slowest_cluster == "little"  # below big's 1.0 * 1800

    def test_cluster_tie_goes_to_the_first_in_spec_order(self):
        twin = dataclasses.replace(big_cluster_spec(), name="twin")
        table = MobilePlatform(cluster_specs=[big_cluster_spec(), twin]).config_table
        assert (table.fastest_cluster, table.slowest_cluster) == ("big", "big")
        table = MobilePlatform(cluster_specs=[twin, big_cluster_spec()]).config_table
        assert (table.fastest_cluster, table.slowest_cluster) == ("twin", "twin")

    def test_profile_cluster_is_fastest(self):
        platform = tri_cluster_platform()
        runtime = GreenWebRuntime(
            platform, AnnotationRegistry(), build_live_scenario("imperceptible", platform)
        )
        assert runtime.profiler.profile_cluster == "prime"  # 1.4 * 2500 > 1.0 * 1800
        assert set(runtime.profiler.cycle_factors) == {"big", "little"}

    def test_all_cluster_models_derived(self):
        platform = tri_cluster_platform()
        runtime, browser, msgs = run_taps(platform)
        state = runtime._keys["#btn@click"]
        assert state.phase is _Phase.STABLE
        for cluster in ("prime", "big", "little"):
            assert state.models.has(cluster)

    def test_config_space_spans_all_clusters(self):
        platform = tri_cluster_platform()
        assert len(platform.all_configs()) == 11 + 6 + 3

    def test_taps_complete_and_predict(self):
        platform = tri_cluster_platform()
        runtime, browser, msgs = run_taps(platform, count=5)
        assert runtime.stats.predictions >= 2
        for msg in msgs:
            assert browser.tracker.record(msg.uid).completed

    def test_both_cluster_profiling_rejected_on_three(self):
        platform = tri_cluster_platform()
        with pytest.raises(RuntimeModelError):
            GreenWebRuntime(
                platform,
                AnnotationRegistry(),
                build_live_scenario("imperceptible", platform),
                profile_both_clusters=True,
            )


class TestEbsOnOtherTopologies:
    def test_single_cluster_taps_complete(self):
        platform = single_cluster_platform()
        ebs, browser, msgs = run_taps(platform, count=5, policy=EbsGovernor(platform))
        assert all(browser.tracker.record(m.uid).completed for m in msgs)
        assert all(browser.tracker.record(m.uid).frame_count == 1 for m in msgs)
        state = ebs._keys["#btn@click"]
        assert state.phase is _Phase.STABLE
        assert state.models.has("big")
        assert ebs.profiler.secondary_clusters == []

    def test_tri_cluster_profiles_on_prime(self):
        platform = tri_cluster_platform()
        ebs = EbsGovernor(platform)
        assert ebs.profiler.profile_cluster == "prime"
        ebs, browser, msgs = run_taps(platform, count=5, policy=ebs)
        assert all(browser.tracker.record(m.uid).completed for m in msgs)
        # The two profiling taps pin the prime cluster's fmax, then fmin.
        prime = [
            r["freq_mhz"]
            for r in platform.trace.filter(category="config", name="applied")
            if r["cluster"] == "prime"
        ]
        assert prime[:2] == [2500, 1500]
        state = ebs._keys["#btn@click"]
        assert state.phase is _Phase.STABLE
        for cluster in ("prime", "big", "little"):
            assert state.models.has(cluster)
