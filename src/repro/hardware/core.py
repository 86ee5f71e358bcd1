"""Cluster specifications, cluster runtime state, and the work model.

Work model
----------
All CPU work in the simulator is a :class:`WorkUnit` with two parts:

* ``cycles`` — *reference cycles*: the number of cycles the work takes
  on a big core at IPC 1.  A little core pays an IPC penalty
  (``ipc_factor`` < 1), so it needs ``cycles / ipc_factor`` real cycles.
* ``fixed_us`` — frequency-independent time: GPU work, memory stalls,
  I/O waits.  This maps directly onto the ``T_independent`` term of the
  Xie et al. DVFS model the GreenWeb runtime fits (paper Eq. 1), which
  is deliberate: the model's functional form is exact, but the runtime
  must still *learn* its coefficients from profiling runs.

Execution time at an operating point is therefore::

    duration_us = fixed_us + cycles / (ipc_factor * freq_mhz)

(with ``freq_mhz`` cycles per microsecond at IPC 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import HardwareError
from repro.hardware.frequency import OperatingPoint, OppTable


class _WorkFields(NamedTuple):
    cycles: float
    fixed_us: float = 0.0


class WorkUnit(_WorkFields):
    """A quantum of CPU work (see module docstring for the model).

    An immutable pair; equality and hashing are the plain tuple's.  The
    constructor rejects negative amounts.  Units derived from checked
    ones (:meth:`scaled`, ``+``, a render cost model's frame work) are
    non-negative by construction and are built with
    :func:`trusted_work`, which skips the check.

    Attributes:
        cycles: reference big-core cycles (>= 0).
        fixed_us: frequency-independent microseconds (>= 0).
    """

    __slots__ = ()

    def __new__(cls, cycles: float, fixed_us: float = 0.0) -> "WorkUnit":
        if cycles < 0:
            raise HardwareError(f"negative work cycles: {cycles}")
        if fixed_us < 0:
            raise HardwareError(f"negative fixed time: {fixed_us}")
        return tuple.__new__(cls, (cycles, fixed_us))

    @property
    def is_empty(self) -> bool:
        """True if the unit contains no work at all."""
        return self.cycles == 0 and self.fixed_us == 0

    def duration_us(self, ipc_factor: float, freq_mhz: int) -> float:
        """Execution time in microseconds on a core with the given IPC
        factor running at ``freq_mhz``."""
        if ipc_factor <= 0:
            raise HardwareError(f"non-positive IPC factor: {ipc_factor}")
        if freq_mhz <= 0:
            raise HardwareError(f"non-positive frequency: {freq_mhz}")
        return self.fixed_us + self.cycles / (ipc_factor * freq_mhz)

    def scaled(self, fraction: float) -> "WorkUnit":
        """Return a copy with both components scaled by ``fraction``
        (used to compute remaining work after partial execution)."""
        if not 0.0 <= fraction <= 1.0:
            raise HardwareError(f"scale fraction out of [0, 1]: {fraction}")
        return trusted_work((self.cycles * fraction, self.fixed_us * fraction))

    def __add__(self, other: "WorkUnit") -> "WorkUnit":
        return trusted_work((self.cycles + other.cycles, self.fixed_us + other.fixed_us))


#: ``trusted_work((cycles, fixed_us))`` builds a :class:`WorkUnit` from
#: amounts already known to be non-negative, without the constructor's
#: check (and without a Python-level call).
trusted_work = functools.partial(tuple.__new__, WorkUnit)

#: The empty unit (zero-work tasks, a callback that burned no CPU).
ZERO_WORK = WorkUnit(0.0, 0.0)


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of one CPU cluster.

    Attributes:
        name: e.g. ``"big"`` or ``"little"``.
        microarchitecture: e.g. ``"Cortex-A15"`` (informational).
        core_count: number of cores in the cluster.
        ipc_factor: relative instructions-per-cycle vs. the reference
            (big) core; big = 1.0, little < 1.0.
        ceff_nf: effective switched capacitance in nanofarads, the ``C``
            of the dynamic power model ``P = C * V^2 * f``.
        leakage_w_per_v: leakage coefficient; static power of a powered
            cluster is ``leakage_w_per_v * voltage``.
        opps: the cluster's DVFS operating-point table.
    """

    name: str
    microarchitecture: str
    core_count: int
    ipc_factor: float
    ceff_nf: float
    leakage_w_per_v: float
    opps: OppTable

    def __post_init__(self) -> None:
        if self.core_count <= 0:
            raise HardwareError(f"cluster {self.name!r} needs at least one core")
        if not 0 < self.ipc_factor <= 2.0:
            raise HardwareError(f"implausible IPC factor {self.ipc_factor}")
        if self.ceff_nf <= 0 or self.leakage_w_per_v < 0:
            raise HardwareError("power coefficients must be positive")

    def duration_us(self, work: WorkUnit, freq_mhz: int) -> float:
        """Time for ``work`` on one core of this cluster at ``freq_mhz``."""
        return work.duration_us(self.ipc_factor, freq_mhz)


class Cluster:
    """Runtime state of one cluster: current OPP and power gating."""

    def __init__(self, spec: ClusterSpec, powered: bool = True) -> None:
        self.spec = spec
        self._opp = spec.opps.min
        self._powered = powered

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def opp(self) -> OperatingPoint:
        """The cluster's current operating point."""
        return self._opp

    @property
    def freq_mhz(self) -> int:
        return self._opp.freq_mhz

    @property
    def powered(self) -> bool:
        """Whether the cluster is powered (unpowered clusters leak
        nothing; the Exynos 5410's clusters can be individually gated)."""
        return self._powered

    def set_frequency(self, freq_mhz: int) -> OperatingPoint:
        """Set the OPP by frequency and return it."""
        opp = self.spec.opps.at(freq_mhz)
        self._opp = opp
        return opp

    def power_on(self) -> None:
        self._powered = True

    def power_off(self) -> None:
        self._powered = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self._powered else "off"
        return f"<Cluster {self.name} {self._opp} {state}>"


@functools.cache
def big_cluster_spec() -> ClusterSpec:
    """The Exynos-5410-like big cluster (4x Cortex-A15); one immutable
    instance per process."""
    from repro.hardware.frequency import cortex_a15_opps

    return ClusterSpec(
        name="big",
        microarchitecture="Cortex-A15",
        core_count=4,
        ipc_factor=1.0,
        ceff_nf=0.55,
        leakage_w_per_v=0.25,
        opps=cortex_a15_opps(),
    )


@functools.cache
def little_cluster_spec() -> ClusterSpec:
    """The Exynos-5410-like little cluster (4x Cortex-A7); one immutable
    instance per process."""
    from repro.hardware.frequency import cortex_a7_opps

    return ClusterSpec(
        name="little",
        microarchitecture="Cortex-A7",
        core_count=4,
        ipc_factor=0.50,
        ceff_nf=0.08,
        leakage_w_per_v=0.03,
        opps=cortex_a7_opps(),
    )
