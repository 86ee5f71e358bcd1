"""Workload base types and work-distribution helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.browser.page import Page
from repro.browser.stages import RenderCostModel
from repro.core.qos import QoSType
from repro.sim.random import RngStreams
from repro.web.css.stylesheet import StyleRule, Stylesheet
from repro.web.dom import Document
from repro.web.events import InteractionKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.interactions import InteractionTrace

MCYCLES = 1_000_000.0


@dataclass(frozen=True)
class ApplicationSpec:
    """Table 3 metadata for one application.

    ``full_*`` fields describe the *full interaction* trace; the
    ``micro_*`` fields describe the micro-benchmark interaction.
    """

    name: str
    display_name: str
    domain: str
    micro_interaction: InteractionKind
    micro_qos_type: QoSType
    micro_target_label: str  # e.g. "(16.6, 33.3) ms"
    full_duration_s: int
    full_events: int
    annotation_pct: float
    annotated_manually: bool = False  # the paper's '*' rows

    def __str__(self) -> str:
        return self.display_name


@dataclass
class AppBundle:
    """Everything needed to run one application in an experiment.

    ``spec``, ``manual_annotation_css`` and both traces are the
    application's :class:`AppTemplate` objects, shared by every bundle;
    ``page`` belongs to this bundle (see :meth:`AppTemplate.instantiate`).
    """

    spec: ApplicationSpec
    page: Page
    #: Developer-written GreenWeb annotations (CSS text), including the
    #: manual QoS-target corrections of Sec. 7.3.
    manual_annotation_css: str
    micro_trace: "InteractionTrace"
    full_trace: "InteractionTrace"

    def apply_manual_annotations(self) -> None:
        """Merge the manual annotation CSS into the page stylesheet."""
        from repro.web.css.parser import parse_stylesheet

        if self.manual_annotation_css.strip():
            self.page.stylesheet.extend(parse_stylesheet(self.manual_annotation_css))


@dataclass(frozen=True)
class AppTemplate:
    """The seed-independent part of one application, built once per
    process (:func:`repro.workloads.registry.app_template`) and shared
    by every session of it.

    Every field is immutable: the document is frozen
    (:meth:`~repro.web.dom.Document.freeze`, listeners attached), the
    rules and traces are tuples of frozen objects, and the callbacks
    keep their state in the per-session ``Page.state``.
    """

    spec: ApplicationSpec
    document: Document
    #: the markup's ``<style>`` rules
    rules: tuple[StyleRule, ...]
    manual_annotation_css: str
    micro_trace: "InteractionTrace"
    full_trace: "InteractionTrace"
    render_cost: RenderCostModel = RenderCostModel()
    native_scroll_complexity: float = 0.0
    #: the callbacks write the DOM (style writes, class mutations), so
    #: every session of this app needs a private copy of the document
    writes_dom: bool = False
    #: ``rules`` followed by the parsed manual annotation CSS
    annotated_rules: tuple[StyleRule, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        from repro.web.css.parser import parse_stylesheet

        self.document.freeze()
        manual = parse_stylesheet(self.manual_annotation_css).rules
        object.__setattr__(self, "annotated_rules", self.rules + tuple(manual))

    def instantiate(self, seed: int, with_manual_annotations: bool = True) -> AppBundle:
        """One session's bundle: only the seed work happens here.

        The page gets its own RNG stream, state dict and stylesheet
        list.  It shares the frozen template document unless the app
        writes its DOM or the caller means to edit the page (no manual
        annotations: AutoGreen, target sweeps); then it gets a clone.
        """
        private = self.writes_dom or not with_manual_annotations
        page = Page(
            name=self.spec.name,
            document=self.document.clone() if private else self.document,
            stylesheet=Stylesheet(
                self.annotated_rules if with_manual_annotations else self.rules
            ),
            render_cost=self.render_cost,
            rng=RngStreams(seed).fork(self.spec.name).stream("page"),
            native_scroll_complexity=self.native_scroll_complexity,
        )
        return AppBundle(
            self.spec, page, self.manual_annotation_css, self.micro_trace, self.full_trace
        )


def lognormal_mcycles(
    rng: np.random.Generator, mean_mcycles: float, sigma: float = 0.25
) -> float:
    """Draw a work amount (reference cycles) from a lognormal centred
    on ``mean_mcycles`` — callback costs on real pages are right-skewed."""
    mu = np.log(mean_mcycles) - sigma**2 / 2.0
    return float(rng.lognormal(mu, sigma)) * MCYCLES


def bimodal_mcycles(
    rng: np.random.Generator,
    light_mcycles: float,
    heavy_mcycles: float,
    heavy_probability: float,
    sigma: float = 0.15,
) -> float:
    """Light/heavy mixture (e.g. LZMA-JS compressing small vs. large
    buffers)."""
    mean = heavy_mcycles if rng.random() < heavy_probability else light_mcycles
    return lognormal_mcycles(rng, mean, sigma)


def surge_complexity(
    rng: np.random.Generator,
    base: float,
    surge_probability: float,
    surge_factor: float,
) -> float:
    """Per-frame render complexity with occasional surges — the frame
    pattern behind W3Schools'/Cnet's usable-mode violations (Sec. 7.2)."""
    value = base * float(rng.uniform(0.9, 1.1))
    if rng.random() < surge_probability:
        value *= surge_factor
    return value
