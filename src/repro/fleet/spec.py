"""Fleet population specs: what a simulated user population looks like.

A :class:`FleetSpec` describes a *population* of sessions as a weighted
mix of (application, governor, scenario, trace) cells plus a root seed,
or, when it names explicit ``seeds``, as the grid of every mix cell
under every seed (the figure matrices and seed spreads).
Expansion is fully deterministic: session ``i`` of a fleet rooted at
seed ``s`` always gets the same cell and the same derived workload seed,
independent of how many worker processes later execute it.  Sharding is
equally deterministic and — crucially — independent of the job count,
so ``--jobs 1`` and ``--jobs 8`` partition (and therefore aggregate)
the population identically.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from repro.errors import EvaluationError
from repro.policies import POLICIES
from repro.scenarios import SCENARIOS
from repro.sim.clock import SETTLE_S
from repro.sim.random import RngStreams, derive_seed
from repro.workloads.registry import APP_NAMES

#: Shard size used when a spec does not choose one.  Small enough that a
#: hundred-session fleet spreads across several workers, large enough
#: that per-shard process overhead stays negligible.
DEFAULT_SHARD_SIZE = 8

#: Bump whenever expansion, seeding, aggregation, or the serialised
#: aggregate schema changes in a result-affecting way: a checkpoint
#: written by older code must not silently merge with shards produced
#: by newer code.
#: v2: aggregate schema gained switching counts and per-cell groups.
FINGERPRINT_VERSION = 2

_TRACE_KINDS = ("micro", "full")


@dataclass(frozen=True)
class MixEntry:
    """One weighted cell of the population mix."""

    app: str
    governor: str = "greenweb"
    scenario: str = "imperceptible"
    trace_kind: str = "micro"
    weight: float = 1.0

    def validate(self) -> "MixEntry":
        """Validate every field and return the canonical entry.

        The governor and scenario are normalized through their
        registries, so ``greenweb(boost=0, ewma=0.25)`` and
        ``greenweb(ewma_alpha=0.25,boost=0)`` become the same canonical
        spec string — and likewise ``thermal(trip_ms=2000,cap_mhz=900)``
        and ``thermal(cap_mhz=900.0, trip_ms=2e3)``.  The canonical
        strings are what the fleet fingerprint hashes, making two
        parameterizations of one governor or scenario distinct
        populations.
        """
        if self.app not in APP_NAMES:
            raise EvaluationError(
                f"unknown application {self.app!r}; known: {list(APP_NAMES)}"
            )
        canonical_governor = POLICIES.normalize(self.governor).canonical()
        canonical_scenario = SCENARIOS.normalize(self.scenario).canonical()
        if self.trace_kind not in _TRACE_KINDS:
            raise EvaluationError(
                f"unknown trace kind {self.trace_kind!r}; use 'micro' or 'full'"
            )
        if not (self.weight > 0.0):
            raise EvaluationError(f"mix weight must be positive, got {self.weight}")
        if (canonical_governor, canonical_scenario) != (self.governor, self.scenario):
            return replace(
                self, governor=canonical_governor, scenario=canonical_scenario
            )
        return self

    @property
    def label(self) -> str:
        return f"{self.app}:{self.governor}:{self.scenario}:{self.trace_kind}"


def _split_outside_parens(text: str, sep: str) -> list[str]:
    """Split on ``sep`` occurrences not enclosed in parentheses, so
    parameterized governor and scenario specs
    (``greenweb(ewma=0.25,boost=2)``, ``thermal(cap_mhz=1100)``) pass
    through the mix grammar's ``,``/``:``/``=`` separators intact."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth = max(0, depth - 1)
        if char == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    parts.append("".join(current))
    return parts


def parse_mix(text: str) -> list[MixEntry]:
    """Parse a ``--mix`` string into validated entries.

    Grammar: comma-separated items, each
    ``APP[:GOVERNOR[:SCENARIO[:TRACE]]][=WEIGHT]``, where GOVERNOR and
    SCENARIO may be parameterized specs (separators inside their
    parentheses do not split the item), e.g.::

        todo:greenweb=3,cnet:perf,amazon:greenweb(ewma=0.25):usable:full=0.5
        paperjs:greenweb:thermal(cap_mhz=1100,hot_load=0.2):micro=2
    """
    entries = []
    for raw in _split_outside_parens(text, ","):
        item = raw.strip()
        if not item:
            continue
        weight = 1.0
        weight_parts = _split_outside_parens(item, "=")
        if len(weight_parts) > 1:
            item = "=".join(weight_parts[:-1])
            weight_text = weight_parts[-1]
            try:
                weight = float(weight_text)
            except ValueError:
                raise EvaluationError(
                    f"bad mix weight {weight_text!r} in {raw.strip()!r}"
                ) from None
        parts = [part.strip() for part in _split_outside_parens(item, ":")]
        if len(parts) > 4:
            raise EvaluationError(
                f"bad mix item {raw.strip()!r}: expected "
                "APP[:GOVERNOR[:SCENARIO[:TRACE]]][=WEIGHT]"
            )
        defaults = MixEntry(app=parts[0])
        entries.append(
            MixEntry(
                app=parts[0],
                governor=parts[1] if len(parts) > 1 else defaults.governor,
                scenario=parts[2] if len(parts) > 2 else defaults.scenario,
                trace_kind=parts[3] if len(parts) > 3 else defaults.trace_kind,
                weight=weight,
            ).validate()
        )
    if not entries:
        raise EvaluationError(f"empty mix {text!r}")
    return entries


def default_mix() -> list[MixEntry]:
    """All twelve applications under GreenWeb and Perf, micro traces."""
    return [
        MixEntry(app=app, governor=governor)
        for app in APP_NAMES
        for governor in ("greenweb", "perf")
    ]


@dataclass(frozen=True)
class SessionSpec:
    """One fully-resolved session of the population."""

    index: int
    app: str
    governor: str
    scenario: str
    trace_kind: str
    seed: int

    def to_job(self, settle_s: float = SETTLE_S) -> dict:
        """The picklable :func:`repro.evaluation.runner.run_workload_job`
        argument for this session."""
        return {
            "app": self.app,
            "governor": self.governor,
            "scenario": self.scenario,
            "trace_kind": self.trace_kind,
            "seed": self.seed,
            "settle_s": settle_s,
        }


@dataclass(frozen=True)
class Shard:
    """A contiguous slice of the population executed by one worker."""

    index: int
    sessions: tuple[SessionSpec, ...]

    def __len__(self) -> int:
        return len(self.sessions)


@dataclass
class FleetSpec:
    """A population of sessions plus the knobs that control its run."""

    sessions: int
    seed: int = 0
    mix: list[MixEntry] = field(default_factory=default_mix)
    shard_size: int = DEFAULT_SHARD_SIZE
    max_retries: int = 1
    shard_timeout_s: float = 300.0
    settle_s: float = SETTLE_S
    #: explicit workload seeds: when set, the population is the grid
    #: ``mix x seeds`` in that order (weights unused, no seeds derived)
    #: and the run keeps every session's result row
    seeds: tuple[int, ...] = ()
    #: test-only fault injection, e.g. ``{"shard": 2, "attempts": 1}``
    #: (fail the first attempt of shard 2) with optional ``"mode"`` of
    #: ``"raise"`` (default), ``"sleep"`` (hang past the timeout) or
    #: ``"exit"`` (the pool worker dies mid-shard);
    #: ``"shard"`` may be a list to target several shards at once.
    inject_crash: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.sessions <= 0:
            raise EvaluationError(f"fleet needs >= 1 session, got {self.sessions}")
        if self.shard_size <= 0:
            raise EvaluationError(f"shard size must be positive, got {self.shard_size}")
        if self.max_retries < 0:
            raise EvaluationError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (math.isfinite(self.settle_s) and self.settle_s >= 0):
            raise EvaluationError(f"settle_s must be finite and >= 0, got {self.settle_s}")
        if not (math.isfinite(self.shard_timeout_s) and self.shard_timeout_s > 0):
            raise EvaluationError(
                f"shard_timeout_s must be finite and > 0, got {self.shard_timeout_s}"
            )
        if not self.mix:
            raise EvaluationError("fleet mix must not be empty")
        if self.seeds and self.sessions != len(self.mix) * len(self.seeds):
            raise EvaluationError(
                f"a grid of {len(self.mix)} cells x {len(self.seeds)} seeds has "
                f"{len(self.mix) * len(self.seeds)} sessions, got {self.sessions}"
            )
        # validate() canonicalizes governor specs, so re-bind the list:
        # the fingerprint below must hash canonical strings, never the
        # caller's spelling.
        self.mix = [entry.validate() for entry in self.mix]
        # Weights are positive, so a finite sum means finite weights too.
        if not math.isfinite(sum(entry.weight for entry in self.mix)):
            raise EvaluationError(
                "mix weights must be finite with a finite sum, got "
                f"{[entry.weight for entry in self.mix]}"
            )

    def fingerprint(self) -> dict:
        """The result-determining identity of this population.

        Two specs with equal fingerprints expand, shard, and aggregate
        identically, so their shard partials are interchangeable — this
        is the compatibility contract a resume checks before reusing
        checkpointed shards.  Execution knobs that cannot change any
        result (``max_retries``, ``shard_timeout_s``, job count, the
        test-only ``inject_crash``) are deliberately excluded: retrying
        an interrupted run with a longer timeout is exactly the
        situation resume exists for.
        """
        fingerprint = {
            "version": FINGERPRINT_VERSION,
            "sessions": self.sessions,
            "seed": self.seed,
            "mix": [
                [entry.app, entry.governor, entry.scenario, entry.trace_kind,
                 entry.weight]
                for entry in self.mix
            ],
            "shard_size": self.shard_size,
            "settle_s": self.settle_s,
        }
        if self.seeds:
            # Only grids carry the key, so every mix fleet's fingerprint
            # (and checkpoint header) keeps its bytes.
            fingerprint["seeds"] = list(self.seeds)
        return fingerprint

    # ------------------------------------------------------------------
    # Deterministic expansion
    # ------------------------------------------------------------------
    def expand(self) -> list[SessionSpec]:
        """Resolve the population into one spec per session.

        A grid is every mix cell under every explicit seed, cell-major.
        Otherwise session ``i`` draws its cell from the ``fleet/mix`` RNG
        stream of the root seed and derives its own workload seed, so
        the expansion depends only on (sessions, seed, mix) — never on
        job count.
        """
        if self.seeds:
            cells = [(entry, seed) for entry in self.mix for seed in self.seeds]
        else:
            weights = np.array([entry.weight for entry in self.mix], dtype=float)
            rng = RngStreams(self.seed).stream("fleet/mix")
            choices = rng.choice(
                len(self.mix), size=self.sessions, p=weights / weights.sum()
            )
            cells = [
                (self.mix[int(choice)], derive_seed(self.seed, "fleet-session", index))
                for index, choice in enumerate(choices)
            ]
        return [
            SessionSpec(
                index=index,
                app=entry.app,
                governor=entry.governor,
                scenario=entry.scenario,
                trace_kind=entry.trace_kind,
                seed=seed,
            )
            for index, (entry, seed) in enumerate(cells)
        ]

    def shards(self) -> list[Shard]:
        """Partition the expanded population into fixed-size shards."""
        specs = self.expand()
        return [
            Shard(index=shard_index, sessions=tuple(specs[start : start + self.shard_size]))
            for shard_index, start in enumerate(range(0, len(specs), self.shard_size))
        ]


#: FleetSpec's plain field defaults, read off the dataclass: the one
#: source of the ``repro fleet`` flag defaults and the ``POST /jobs``
#: payload defaults (``mix`` has a factory and is not listed).
FLEET_DEFAULTS: dict = {
    spec_field.name: spec_field.default
    for spec_field in fields(FleetSpec)
    if spec_field.default is not MISSING
}
