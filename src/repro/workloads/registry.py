"""Workload registry: build applications by name, Table 3 metadata."""

from __future__ import annotations

from repro.errors import WorkloadError
from repro.workloads.apps import APP_BUILDERS
from repro.workloads.base import AppBundle, ApplicationSpec, AppTemplate

#: All application names, Table 3 order.
APP_NAMES: tuple[str, ...] = tuple(APP_BUILDERS)

#: name -> the application's template, built on first use.
_TEMPLATES: dict[str, AppTemplate] = {}


def app_template(name: str) -> AppTemplate:
    """The process-wide, immutable template of one application (built
    on first use).

    Raises:
        WorkloadError: for an unknown application name.
    """
    template = _TEMPLATES.get(name)
    if template is None:
        try:
            builder = APP_BUILDERS[name]
        except KeyError:
            raise WorkloadError(
                f"unknown application {name!r}; known: {list(APP_NAMES)}"
            ) from None
        template = _TEMPLATES[name] = builder()
    return template


def build_app(name: str, seed: int = 0, with_manual_annotations: bool = True) -> AppBundle:
    """Build an application bundle for one session.

    Only the seed work runs per call (see
    :meth:`~repro.workloads.base.AppTemplate.instantiate`): the page's
    RNG stream, state and stylesheet are the bundle's own, while the
    spec, traces and, unless the app writes its DOM, the frozen
    document are shared with every other bundle of the app.

    Args:
        name: one of :data:`APP_NAMES`.
        seed: workload RNG seed (deterministic per (name, seed)).
        with_manual_annotations: merge the developer's GreenWeb
            annotations into the page stylesheet (the paper's manual or
            AutoGreen-plus-corrections annotation state).  Pass False
            to get the *unannotated* application, e.g. to run AutoGreen
            on it from scratch; the page then has a private, writable
            document.

    Raises:
        WorkloadError: for an unknown application name.
    """
    return app_template(name).instantiate(seed, with_manual_annotations)


def table3_specs() -> list[ApplicationSpec]:
    """The Table 3 metadata rows for all twelve applications."""
    return [app_template(name).spec for name in APP_NAMES]


def app_spec(name: str) -> ApplicationSpec:
    """Metadata for one application."""
    if name not in APP_BUILDERS:
        raise WorkloadError(f"unknown application {name!r}")
    return app_template(name).spec
