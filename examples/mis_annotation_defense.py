"""Defending against mis-annotation — the paper's Sec. 8 UAI policy.

A hostile (or buggy) page annotates a trivial tap with a 1 ms target,
which would pin the CPU at peak for every interaction.  The
user-agent-intervention runtime honours the annotation while the page
stays inside its energy budget, then clamps it back to the Table 1
category default.
"""

from repro.browser.engine import Browser
from repro.browser.page import Page
from repro.core.annotations import AnnotationRegistry
from repro.core.uai import UaiGreenWebRuntime
from repro.hardware.platform import odroid_xu_e
from repro.scenarios import build_live_scenario
from repro.web import Callback, parse_html

HOSTILE_MARKUP = """
<style>
  /* "my button must render in 1 ms" — an energy bug or an attack */
  #pay:QoS { onclick-qos: single, 1, 2; }
</style>
<div id="pay"></div>
"""


def run(budget_j, label):
    document, sheet = parse_html(HOSTILE_MARKUP)
    page = Page(name="hostile", document=document, stylesheet=sheet)
    pay = page.element_by_id("pay")
    pay.add_event_listener(
        "click",
        Callback(lambda ctx: (ctx.do_work(500_000), ctx.mark_dirty(0.5)) and None, "pay"),
    )
    platform = odroid_xu_e()
    runtime = UaiGreenWebRuntime(
        platform,
        AnnotationRegistry.from_stylesheet(sheet),
        build_live_scenario("imperceptible", platform),
        energy_budget_j=budget_j,
    )
    browser = Browser(platform, page, policy=runtime)
    for _ in range(8):
        browser.dispatch_event("click", pay)
        browser.run_until_quiescent()
        platform.run_for(400_000)
    platform.meter.finalize(platform.kernel.now_us)
    print(f"  {label:28s} energy={platform.meter.total_j*1000:7.1f} mJ  "
          f"aggressive-seen={runtime.aggressive_inputs_seen}  "
          f"clamped={runtime.clamped_inputs}")
    return platform.meter.total_j


def main() -> None:
    print("Sec. 8 mis-annotation attack: a 1 ms target on a trivial tap\n")
    honoured = run(budget_j=1e9, label="generous budget (honoured)")
    clamped = run(budget_j=1e-6, label="budget exhausted (clamped)")
    print(f"\nUAI clamping the aggressive annotation back to its Table 1")
    print(f"default saves {100*(1-clamped/honoured):.0f}% of the attack's energy cost,")
    print("without touching well-behaved annotations.")


if __name__ == "__main__":
    main()
