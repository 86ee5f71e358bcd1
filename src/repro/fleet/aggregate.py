"""Mergeable streaming metrics for fleet runs.

A fleet of a million sessions cannot hold a million ``RunResult``
objects; it folds each session into constant-size *mergeable*
accumulators instead.  Every type here supports three operations —
``add`` (fold in one observation), ``merge`` (combine two partials),
and ``to_dict``/``from_dict`` (cross a process or JSON boundary) — and
merging partials in a fixed order reproduces the single-process result
bit for bit, which is what makes ``--jobs N`` invisible in the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import EvaluationError


@dataclass
class Accumulator:
    """Count / sum / min / max of a stream of floats."""

    count: int = 0
    sum: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def add(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Accumulator") -> None:
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Accumulator":
        return cls(
            count=data["count"], sum=data["sum"], min=data["min"], max=data["max"]
        )


@dataclass
class Histogram:
    """Fixed-bucket histogram over ``[lo, hi)`` with explicit overflow.

    Fixed bucket edges are what make two partial histograms mergeable by
    plain element-wise addition — no re-binning, no approximation.
    """

    lo: float
    hi: float
    buckets: int
    counts: list[int] = field(default_factory=list)
    underflow: int = 0
    overflow: int = 0

    def __post_init__(self) -> None:
        if self.hi <= self.lo or self.buckets <= 0:
            raise EvaluationError(
                f"bad histogram bounds [{self.lo}, {self.hi}) x {self.buckets}"
            )
        if not self.counts:
            self.counts = [0] * self.buckets
        elif len(self.counts) != self.buckets:
            raise EvaluationError(
                f"histogram has {len(self.counts)} counts for {self.buckets} buckets"
            )

    def edge(self, index: int) -> float:
        """The lower edge of bucket ``index`` (``edge(buckets) == hi``);
        bucket ``i`` covers ``[edge(i), edge(i+1))``."""
        return self.lo + (self.hi - self.lo) * index / self.buckets

    def add(self, value: float) -> None:
        if value < self.lo:
            self.underflow += 1
        elif value >= self.hi:
            self.overflow += 1
        else:
            # The multiply-divide estimate can land one bucket off near
            # an edge (and round to index == buckets for values just
            # below hi); clamp, then nudge until the bucket's half-open
            # range actually contains the value.
            index = int((value - self.lo) / (self.hi - self.lo) * self.buckets)
            if index >= self.buckets:
                index = self.buckets - 1
            while index > 0 and value < self.edge(index):
                index -= 1
            while index + 1 < self.buckets and value >= self.edge(index + 1):
                index += 1
            self.counts[index] += 1

    def merge(self, other: "Histogram") -> None:
        if (other.lo, other.hi, other.buckets) != (self.lo, self.hi, self.buckets):
            raise EvaluationError(
                "cannot merge histograms with different bucket layouts: "
                f"[{self.lo}, {self.hi}) x {self.buckets} vs "
                f"[{other.lo}, {other.hi}) x {other.buckets}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.underflow += other.underflow
        self.overflow += other.overflow

    @property
    def total(self) -> int:
        return sum(self.counts) + self.underflow + self.overflow

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "buckets": self.buckets,
            "counts": list(self.counts),
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        return cls(
            lo=data["lo"],
            hi=data["hi"],
            buckets=data["buckets"],
            counts=list(data["counts"]),
            underflow=data["underflow"],
            overflow=data["overflow"],
        )


#: Separator for :attr:`FleetAggregate.by_cell` keys.  Canonical policy
#: and scenario specs may contain ``(`` ``)`` ``,`` ``=`` but never
#: ``|`` — the spec grammar's parser alphabet excludes it, and
#: programmatic construction rejects it
#: (:class:`repro.policies.spec.PolicySpec` bans the fleet delimiters
#: in string parameter values).  :func:`cell_key` still guards, so a
#: future field that slips a ``|`` through fails loudly here instead of
#: producing a key :func:`split_cell_key` mis-parses.
CELL_SEP = "|"


def cell_key(app: str, scenario: str, governor: str) -> str:
    """The ``by_cell`` grouping key for one (app, scenario, policy)."""
    for field_name, value in (
        ("app", app), ("scenario", scenario), ("governor", governor)
    ):
        if CELL_SEP in value:
            raise EvaluationError(
                f"cell {field_name} {value!r} contains the reserved cell-key "
                f"delimiter {CELL_SEP!r}"
            )
    return f"{app}{CELL_SEP}{scenario}{CELL_SEP}{governor}"


def split_cell_key(key: str) -> tuple[str, str, str]:
    """Inverse of :func:`cell_key` (specs never contain ``|``)."""
    app, scenario, governor = key.split(CELL_SEP, 2)
    return app, scenario, governor


@dataclass
class GroupAggregate:
    """Per-group (governor, application, or cell) session statistics."""

    sessions: int = 0
    energy_j: Accumulator = field(default_factory=Accumulator)
    violation_pct: Accumulator = field(default_factory=Accumulator)
    freq_switches: int = 0
    migrations: int = 0

    def add_run(self, run: dict) -> None:
        self.sessions += 1
        self.energy_j.add(run["energy_j"])
        self.violation_pct.add(run["mean_violation_pct"])
        self.freq_switches += run.get("freq_switches", 0)
        self.migrations += run.get("migrations", 0)

    def merge(self, other: "GroupAggregate") -> None:
        self.sessions += other.sessions
        self.energy_j.merge(other.energy_j)
        self.violation_pct.merge(other.violation_pct)
        self.freq_switches += other.freq_switches
        self.migrations += other.migrations

    def to_dict(self) -> dict:
        return {
            "sessions": self.sessions,
            "energy_j": self.energy_j.to_dict(),
            "violation_pct": self.violation_pct.to_dict(),
            "freq_switches": self.freq_switches,
            "migrations": self.migrations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroupAggregate":
        return cls(
            sessions=data["sessions"],
            energy_j=Accumulator.from_dict(data["energy_j"]),
            violation_pct=Accumulator.from_dict(data["violation_pct"]),
            freq_switches=data.get("freq_switches", 0),
            migrations=data.get("migrations", 0),
        )


def _violation_hist() -> Histogram:
    return Histogram(lo=0.0, hi=100.0, buckets=20)


def _energy_hist() -> Histogram:
    return Histogram(lo=0.0, hi=5.0, buckets=25)


def _latency_hist() -> Histogram:
    return Histogram(lo=0.0, hi=200.0, buckets=40)


@dataclass
class FleetAggregate:
    """Everything a fleet run reports, in constant memory.

    Fold sessions in with :meth:`add_run` (taking the plain-dict output
    of :func:`repro.evaluation.runner.run_workload_job`); combine shard
    partials with :meth:`merge`.
    """

    sessions: int = 0
    frames: int = 0
    inputs: int = 0
    energy_j: Accumulator = field(default_factory=Accumulator)
    active_energy_j: Accumulator = field(default_factory=Accumulator)
    violation_pct: Accumulator = field(default_factory=Accumulator)
    #: per-session mean QoS violation, % over target
    violation_hist: Histogram = field(default_factory=_violation_hist)
    #: per-session total energy, joules
    energy_hist: Histogram = field(default_factory=_energy_hist)
    #: per-session mean input-to-completion latency, milliseconds
    latency_hist: Histogram = field(default_factory=_latency_hist)
    freq_switches: int = 0
    migrations: int = 0
    by_governor: dict[str, GroupAggregate] = field(default_factory=dict)
    by_app: dict[str, GroupAggregate] = field(default_factory=dict)
    #: (app, scenario, governor) cells (see :func:`cell_key`) — the
    #: grouping the policy-comparison dashboard renders.
    by_cell: dict[str, GroupAggregate] = field(default_factory=dict)

    def add_run(self, run: dict) -> None:
        self.sessions += 1
        self.frames += run["frames"]
        self.inputs += run["inputs"]
        self.energy_j.add(run["energy_j"])
        self.active_energy_j.add(run["active_energy_j"])
        self.violation_pct.add(run["mean_violation_pct"])
        self.violation_hist.add(run["mean_violation_pct"])
        self.energy_hist.add(run["energy_j"])
        self.freq_switches += run.get("freq_switches", 0)
        self.migrations += run.get("migrations", 0)
        if run["inputs"]:
            self.latency_hist.add(1000.0 * run["active_time_s"] / run["inputs"])
        self.by_governor.setdefault(run["governor"], GroupAggregate()).add_run(run)
        self.by_app.setdefault(run["app"], GroupAggregate()).add_run(run)
        cell = cell_key(
            run["app"], run.get("scenario", "imperceptible"), run["governor"]
        )
        self.by_cell.setdefault(cell, GroupAggregate()).add_run(run)

    def merge(self, other: "FleetAggregate") -> None:
        self.sessions += other.sessions
        self.frames += other.frames
        self.inputs += other.inputs
        self.energy_j.merge(other.energy_j)
        self.active_energy_j.merge(other.active_energy_j)
        self.violation_pct.merge(other.violation_pct)
        self.violation_hist.merge(other.violation_hist)
        self.energy_hist.merge(other.energy_hist)
        self.latency_hist.merge(other.latency_hist)
        self.freq_switches += other.freq_switches
        self.migrations += other.migrations
        for name, group in other.by_governor.items():
            self.by_governor.setdefault(name, GroupAggregate()).merge(group)
        for name, group in other.by_app.items():
            self.by_app.setdefault(name, GroupAggregate()).merge(group)
        for name, group in other.by_cell.items():
            self.by_cell.setdefault(name, GroupAggregate()).merge(group)

    def to_dict(self) -> dict:
        """Plain-data form with deterministically sorted group keys."""
        return {
            "sessions": self.sessions,
            "frames": self.frames,
            "inputs": self.inputs,
            "energy_j": self.energy_j.to_dict(),
            "active_energy_j": self.active_energy_j.to_dict(),
            "violation_pct": self.violation_pct.to_dict(),
            "violation_hist": self.violation_hist.to_dict(),
            "energy_hist": self.energy_hist.to_dict(),
            "latency_hist": self.latency_hist.to_dict(),
            "freq_switches": self.freq_switches,
            "migrations": self.migrations,
            "by_governor": {
                name: self.by_governor[name].to_dict()
                for name in sorted(self.by_governor)
            },
            "by_app": {
                name: self.by_app[name].to_dict() for name in sorted(self.by_app)
            },
            "by_cell": {
                name: self.by_cell[name].to_dict() for name in sorted(self.by_cell)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetAggregate":
        return cls(
            sessions=data["sessions"],
            frames=data["frames"],
            inputs=data["inputs"],
            energy_j=Accumulator.from_dict(data["energy_j"]),
            active_energy_j=Accumulator.from_dict(data["active_energy_j"]),
            violation_pct=Accumulator.from_dict(data["violation_pct"]),
            violation_hist=Histogram.from_dict(data["violation_hist"]),
            energy_hist=Histogram.from_dict(data["energy_hist"]),
            latency_hist=Histogram.from_dict(data["latency_hist"]),
            freq_switches=data.get("freq_switches", 0),
            migrations=data.get("migrations", 0),
            by_governor={
                name: GroupAggregate.from_dict(group)
                for name, group in data["by_governor"].items()
            },
            by_app={
                name: GroupAggregate.from_dict(group)
                for name, group in data["by_app"].items()
            },
            by_cell={
                name: GroupAggregate.from_dict(group)
                for name, group in data.get("by_cell", {}).items()
            },
        )


def merge_partials(partials: dict[int, dict]) -> FleetAggregate:
    """Merge shard partials (``{shard index: partial}``) in shard-index
    order.

    Index order is the one fixed order every merge uses: it makes float
    accumulation identical for every job count and any interleaving of
    checkpointed and fresh shards, and a prefix aggregate streamed
    after shard ``k`` lands is byte-identical to what a ``repro fleet``
    run over exactly that shard subset would report — regardless of the
    (nondeterministic) order shards completed in.
    """
    aggregate = FleetAggregate()
    for index in sorted(partials):
        aggregate.merge(FleetAggregate.from_dict(partials[index]["aggregate"]))
    return aggregate
