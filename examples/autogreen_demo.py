"""AutoGreen: automatic annotation without developer intervention.

Takes the LZMA-JS workload *without* its manual annotations, runs the
three AutoGreen phases (discover -> profile -> generate), prints the
generated GreenWeb CSS, then applies the paper's Sec. 7.3 manual
correction step (AutoGreen conservatively assumes ``short`` for single
events; compression taps deserve ``long``) and compares the energy of
the two annotation states under the GreenWeb runtime.
"""

from repro.autogreen import AutoGreen, generate_annotations
from repro.autogreen.generate import annotate_page, registry_for_page
from repro.browser.engine import Browser
from repro.core.runtime import GreenWebRuntime
from repro.hardware.platform import odroid_xu_e
from repro.scenarios import build_live_scenario
from repro.workloads import InteractionDriver, build_app


def run_annotated(bundle, label):
    platform = odroid_xu_e()
    scenario = build_live_scenario("imperceptible", platform)
    runtime = GreenWebRuntime(platform, registry_for_page(bundle.page), scenario)
    browser = Browser(platform, bundle.page, policy=runtime)
    driver = InteractionDriver(browser)
    driver.run(bundle.micro_trace)
    platform.meter.finalize(platform.kernel.now_us)
    print(f"  {label:30s} energy={platform.meter.total_j*1000:8.1f} mJ "
          f"frames={browser.stats.frames}")
    return platform.meter.total_j


def main() -> None:
    # Phase-by-phase view on the unannotated application.
    bundle = build_app("lzma_js", with_manual_annotations=False)
    autogreen = AutoGreen(bundle.page)
    targets = autogreen.discover()
    print(f"discovered {len(targets)} annotation target(s):")
    for element, event_type in targets:
        print(f"  <{element.tag} id={element.id!r}> on {event_type}")

    results = autogreen.run()
    for result in results:
        signals = ", ".join(str(s) for s in result.signals) or "none"
        print(f"profiled {result.event_type} -> QoS type {result.qos_type} "
              f"(signals: {signals})")

    report = generate_annotations(results)
    print("\ngenerated GreenWeb CSS:")
    for line in report.css_text.splitlines():
        print("  " + line)

    print("\nenergy comparison (imperceptible scenario):")
    # (a) AutoGreen only: conservative single/short targets.
    auto_bundle = build_app("lzma_js", with_manual_annotations=False)
    annotate_page(auto_bundle.page)
    auto_j = run_annotated(auto_bundle, "AutoGreen (conservative)")

    # (b) AutoGreen + the Sec. 7.3 manual correction (single, long).
    corrected = build_app("lzma_js", with_manual_annotations=True)
    corrected_j = run_annotated(corrected, "AutoGreen + manual correction")

    saving = 100 * (1 - corrected_j / auto_j)
    print(f"\ncorrecting the QoS target to 'long' saves a further {saving:.1f}%")
    print("(AutoGreen favours QoS over energy when it cannot know event")
    print(" semantics — exactly the paper's Sec. 5 design decision.)")


if __name__ == "__main__":
    main()
