"""Table 2: the GreenWeb API specification, validated form by form.

Table 2 defines the three declaration forms and their semantics; this
benchmark drives each form through the real parser + registry + runtime
lookup path and prints the specification as implemented.
"""

from conftest import run_once

from repro.core.annotations import AnnotationRegistry
from repro.core.qos import (
    CONTINUOUS_DEFAULT,
    SINGLE_LONG_DEFAULT,
    SINGLE_SHORT_DEFAULT,
    QoSTarget,
    QoSType,
)
from repro.scenarios import SCENARIOS
from repro.web import Document
from repro.web.css.parser import parse_stylesheet

FORMS = (
    (
        "E:QoS { onevent-qos: continuous }",
        "div#e:QoS { ontouchstart-qos: continuous; }",
        "touchstart",
        "continuously optimise every associated frame; Table 1 defaults",
    ),
    (
        "E:QoS { onevent-qos: single, short|long }",
        "div#e:QoS { onclick-qos: single, long; }",
        "click",
        "optimise the single response frame; Table 1 defaults by keyword",
    ),
    (
        "E:QoS { onevent-qos: <type>, ti, tu }",
        "div#e:QoS { ontouchmove-qos: continuous, 20, 100; }",
        "touchmove",
        "explicit TI/TU values (both must appear or be omitted together)",
    ),
)


def _drive_forms():
    rows = []
    for syntax, css, event, semantics in FORMS:
        document = Document()
        element = document.create_element("div", element_id="e")
        registry = AnnotationRegistry.from_stylesheet(parse_stylesheet(css))
        spec = registry.lookup(element, event)
        rows.append((syntax, css.strip(), event, spec, semantics))
    return rows


def test_table2_api_specification(benchmark, record_figure):
    rows = run_once(benchmark, _drive_forms)
    lines = ["Table 2: GreenWeb API forms, as parsed and resolved"]
    for syntax, css, event, spec, semantics in rows:
        lines.append(f"  form:      {syntax}")
        lines.append(f"  example:   {css}")
        lines.append(f"  resolves:  ({event}) -> {spec}")
        lines.append(f"  semantics: {semantics}")
        lines.append("")
    record_figure("table2", "\n".join(lines))

    continuous_spec = rows[0][3]
    single_long_spec = rows[1][3]
    explicit_spec = rows[2][3]

    # Form 1: continuous with Table 1 defaults.
    assert continuous_spec.qos_type is QoSType.CONTINUOUS
    assert continuous_spec.target == CONTINUOUS_DEFAULT
    # Form 2: single with keyword defaults.
    assert single_long_spec.qos_type is QoSType.SINGLE
    assert single_long_spec.target == SINGLE_LONG_DEFAULT
    assert SINGLE_SHORT_DEFAULT.imperceptible_ms == 100  # the other keyword
    # Form 3: explicit TI/TU in milliseconds, scenario-selected.
    assert explicit_spec.target == QoSTarget(20, 100)
    assert SCENARIOS.build("imperceptible").operative_target_ms(explicit_spec.target) == 20
    assert SCENARIOS.build("usable").operative_target_ms(explicit_spec.target) == 100
