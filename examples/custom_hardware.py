"""Running GreenWeb on custom hardware.

The paper's runtime is one design point ("GreenWeb language extensions
do not pose constraints on specific runtime implementations", Sec. 10),
and this library's platform layer is equally parameterisable.  This
example builds a next-generation SoC — wider big cores, a faster
little cluster, on-chip voltage regulators — and compares GreenWeb's
behaviour on it against the paper's Exynos-5410-class platform.
"""

from repro.browser.engine import Browser
from repro.core.annotations import AnnotationRegistry
from repro.core.runtime import GreenWebRuntime
from repro.hardware.core import ClusterSpec
from repro.hardware.frequency import OperatingPoint, OppTable
from repro.hardware.platform import MobilePlatform, odroid_xu_e
from repro.scenarios import build_live_scenario
from repro.workloads import InteractionDriver, build_app


def next_gen_platform() -> MobilePlatform:
    """A hypothetical 2020s-class SoC: A76-like big, A55-like little."""
    big = ClusterSpec(
        name="big",
        microarchitecture="Cortex-A76-like",
        core_count=4,
        ipc_factor=1.8,  # much wider than an A15
        ceff_nf=0.75,
        leakage_w_per_v=0.30,
        opps=OppTable(
            [OperatingPoint(f, 0.75 + (f - 1000) / 1600 * 0.35)
             for f in range(1000, 2601, 200)]
        ),
    )
    little = ClusterSpec(
        name="little",
        microarchitecture="Cortex-A55-like",
        core_count=4,
        ipc_factor=0.9,
        ceff_nf=0.12,
        leakage_w_per_v=0.04,
        opps=OppTable(
            [OperatingPoint(f, 0.70 + (f - 500) / 1300 * 0.25)
             for f in range(500, 1801, 260)]
        ),
    )
    return MobilePlatform(
        cluster_specs=[big, little],
        freq_switch_overhead_us=5,  # integrated voltage regulators
        migration_overhead_us=10,
    )


def run_on(platform, label):
    bundle = build_app("w3schools")
    registry = AnnotationRegistry.from_stylesheet(bundle.page.stylesheet)
    scenario = build_live_scenario("imperceptible", platform)
    runtime = GreenWebRuntime(platform, registry, scenario)
    browser = Browser(platform, bundle.page, policy=runtime)
    driver = InteractionDriver(browser)
    driver.schedule(bundle.micro_trace)
    platform.run_for(bundle.micro_trace.duration_us + 4_000_000)

    latencies = browser.tracker.all_frame_latencies_us()
    mean_latency = sum(latencies) / len(latencies) / 1000 if latencies else 0
    print(f"{label:28s} energy={platform.meter.total_j*1000:8.1f} mJ "
          f"frames={browser.stats.frames:4d} mean-frame={mean_latency:5.1f} ms "
          f"configs-applied={platform.dvfs.switch_count}")
    return platform.meter.total_j


def main() -> None:
    print("GreenWeb (imperceptible) on two platforms, W3Schools micro trace:\n")
    baseline = run_on(odroid_xu_e(), "Exynos-5410 class (paper)")
    modern = run_on(next_gen_platform(), "next-gen SoC (A76/A55-like)")
    print(f"\nThe faster little cluster absorbs frames the 5410's A7 could not,")
    print(f"so the same annotations yield "
          f"{100*(1-modern/baseline):.0f}% less energy with no code changes —")
    print("the portability argument of the paper's Sec. 10.")


if __name__ == "__main__":
    main()
