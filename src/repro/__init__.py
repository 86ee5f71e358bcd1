"""GreenWeb (PLDI 2016) reproduction.

A research-quality Python implementation of *GreenWeb: Language
Extensions for Energy-Efficient Mobile Web Computing* (Zhu & Reddi,
PLDI 2016): the QoS language extensions, the predictive ACMP/DVFS
browser runtime, the AutoGreen automatic annotator, and every substrate
they need (a discrete-event browser-engine simulator and a calibrated
big.LITTLE hardware model), plus the full evaluation harness that
regenerates the paper's figures.

Quickstart::

    from repro import Session

    session = Session.for_application("todo", governor="greenweb",
                                      scenario="imperceptible")
    result = session.run_full_interaction()
    print(result.energy_j, result.mean_violation_pct)

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — QoS abstractions, the GreenWeb CSS extension,
  the predictive runtime, baseline governors (the paper's contribution).
* :mod:`repro.scenarios` — usage scenarios as parameterizable
  simulation actors (``thermal(cap_mhz=1100)``, ``battery(...)``, ...).
* :mod:`repro.autogreen` — automatic annotation (paper Sec. 5).
* :mod:`repro.browser` — Chromium-like frame pipeline simulator.
* :mod:`repro.hardware` — big.LITTLE platform with DVFS and energy.
* :mod:`repro.web` — DOM / CSS / events / script substrate.
* :mod:`repro.workloads` — the twelve Table 3 applications.
* :mod:`repro.evaluation` — per-figure experiment harness.
* :mod:`repro.fleet` — population-scale parallel session simulation
  with streaming, mergeable aggregation.
"""

from repro.core.annotations import AnnotationRegistry
from repro.core.language import GreenWebAnnotation, extract_annotations
from repro.core.qos import (
    QoSSpec,
    QoSTarget,
    QoSType,
    ResponseExpectation,
)
from repro.core.runtime import GreenWebRuntime
from repro.fleet import Fleet, FleetSpec
from repro.policies import POLICIES, PolicySpec, register
from repro.scenarios import SCENARIOS, ScenarioSpec
from repro.session import Session

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Session",
    "Fleet",
    "FleetSpec",
    "QoSType",
    "QoSTarget",
    "QoSSpec",
    "ResponseExpectation",
    "GreenWebAnnotation",
    "extract_annotations",
    "AnnotationRegistry",
    "GreenWebRuntime",
    "POLICIES",
    "PolicySpec",
    "SCENARIOS",
    "ScenarioSpec",
    "register",
]
