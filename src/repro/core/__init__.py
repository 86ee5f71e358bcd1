"""GreenWeb core: QoS abstractions, language extension, runtime, governors.

This package is the paper's primary contribution:

* :mod:`repro.core.qos` — the two QoS abstractions (Sec. 3): QoS type
  (single / continuous) and QoS target (imperceptible TI / usable TU),
  with the Table 1 defaults per interaction category.
* :mod:`repro.core.language` — the GreenWeb CSS extension (Sec. 4):
  ``E:QoS { on<event>-qos: ... }`` rules, parsed off the ordinary CSS
  object model.
* :mod:`repro.core.annotations` — the annotation registry mapping
  (element, event) pairs to QoS specifications under the cascade.
* :mod:`repro.core.perf_model` / :mod:`repro.core.energy_model` /
  :mod:`repro.core.predictor` — the runtime's predictive models
  (Sec. 6.2): the Xie et al. DVFS latency model fitted from two
  profiling runs, the statically profiled power table, and the
  minimum-energy configuration sweep.
* :mod:`repro.core.runtime` — the GreenWeb runtime (Sec. 6): per-frame
  operation, profiling, feedback adaptation, and energy conservation
  after the associated frames of an event are produced.
* :mod:`repro.core.governors` — the baselines (Sec. 7.1): the pinned
  static configuration (Perf) and the Android-style Interactive
  governor (plus extra reference policies).
"""

from repro.core.annotations import AnnotationRegistry
from repro.core.ebs import EbsGovernor
from repro.core.governors import (
    InteractiveGovernor,
    OndemandGovernor,
    PinnedGovernor,
)
from repro.core.language import GreenWebAnnotation, extract_annotations
from repro.core.perf_model import PerfModelCoefficients, fit_dvfs_model
from repro.core.predictor import ConfigPredictor
from repro.core.qos import (
    CONTINUOUS_DEFAULT,
    SINGLE_LONG_DEFAULT,
    SINGLE_SHORT_DEFAULT,
    QoSSpec,
    QoSTarget,
    QoSType,
    ResponseExpectation,
    TABLE1_CATEGORIES,
)
from repro.core.runtime import GreenWebRuntime
from repro.core.uai import UaiGreenWebRuntime

__all__ = [
    "QoSType",
    "QoSTarget",
    "QoSSpec",
    "ResponseExpectation",
    "CONTINUOUS_DEFAULT",
    "SINGLE_SHORT_DEFAULT",
    "SINGLE_LONG_DEFAULT",
    "TABLE1_CATEGORIES",
    "GreenWebAnnotation",
    "extract_annotations",
    "AnnotationRegistry",
    "PerfModelCoefficients",
    "fit_dvfs_model",
    "ConfigPredictor",
    "GreenWebRuntime",
    "UaiGreenWebRuntime",
    "EbsGovernor",
    "PinnedGovernor",
    "InteractiveGovernor",
    "OndemandGovernor",
]
