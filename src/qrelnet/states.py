"""Complex state vectors over edge configurations.

A state on ``n`` edges is a unit vector of ``2 ** n`` complex amplitudes;
basis index ``i`` is the bitmask of active edges, so edge ``k`` owns bit
``k``.  Tensoring puts the left factor in the high bits.  Vectors whose norm
drifts beyond ``NORM_TOL`` are rejected outright, never renormalized.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, NormalizationError, QrelnetError
from .graphs import MAX_EDGES, check_state

NORM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitudes over the edge-configuration basis."""

    num_edges: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 0 <= self.num_edges <= MAX_EDGES:
            raise CapacityError(f"states support 0..{MAX_EDGES} edges, got {self.num_edges}")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.num_edges,):
            raise QrelnetError(
                f"expected {1 << self.num_edges} amplitudes, got shape {amps.shape}",
                code="invalid_state",
            )
        if not np.isfinite(amps).all():
            raise QrelnetError("amplitudes must be finite", code="invalid_state")
        with np.errstate(over="ignore"):  # a huge finite amplitude squares to inf
            norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise NormalizationError(f"state norm^2 is {norm_sq!r}, must be 1 within {NORM_TOL}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def probabilities(self) -> np.ndarray:
        """Born weights of the basis states."""
        return np.abs(self.amplitudes) ** 2


def _check_phase(phase: complex) -> None:
    # NaN fails every comparison, so the distance test alone would pass it.
    if not cmath.isfinite(phase) or abs(abs(phase) - 1.0) > NORM_TOL:
        raise QrelnetError(f"phase {phase!r} must lie on the unit circle", code="invalid_state")


@dataclass(frozen=True)
class QubitSpec:
    """One edge's marginal: active with probability ``p``, inactive with phase ``phase``."""

    p: float
    phase: complex = 1.0 + 0j

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise QrelnetError(f"qubit probability {self.p} outside [0, 1]", code="invalid_probability")
        _check_phase(self.phase)


def qubit(spec: QubitSpec) -> StateVector:
    """Single-edge state ``sqrt(1-p) * phase |0> + sqrt(p) |1>``."""
    q = 1.0 - spec.p
    return StateVector(1, np.array([np.sqrt(q) * spec.phase, np.sqrt(spec.p)], dtype=np.complex128))


def product_state(specs) -> StateVector:
    """Independent qubits, one per edge; spec ``i`` drives bit ``i``."""
    specs = list(specs)
    if not 1 <= len(specs) <= MAX_EDGES:
        raise CapacityError(f"product states support 1..{MAX_EDGES} edges, got {len(specs)}")
    amps = np.array([1.0 + 0j])
    for spec in specs:
        amps = np.kron(qubit(spec).amplitudes, amps)
    return StateVector(len(specs), amps)


def two_term_state(g, zeta: int, chi: int, p: float, phase: complex = 1.0 + 0j) -> StateVector:
    """Superposition of two basis configurations of a graph's edges.

    ``sqrt(p) |zeta> + sqrt(1-p) * phase |chi>`` with ``zeta != chi``; both
    bitmasks must be valid edge states of ``g``.
    """
    check_state(g, zeta)
    check_state(g, chi)
    num_edges = g.num_edges
    if num_edges < 1:
        raise QrelnetError("two-term states need at least one edge", code="invalid_state")
    size = 1 << num_edges
    if zeta == chi:
        raise QrelnetError("the two basis configurations must differ", code="invalid_state")
    if not 0 <= p <= 1:
        raise QrelnetError(f"probability {p} outside [0, 1]", code="invalid_probability")
    _check_phase(phase)
    amps = np.zeros(size, dtype=np.complex128)
    amps[zeta] = np.sqrt(p)
    amps[chi] = np.sqrt(1.0 - p) * phase
    return StateVector(num_edges, amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Combined state with ``a`` in the high bits: index ``i_a * 2**n_b + i_b``."""
    n = a.num_edges + b.num_edges
    if n > MAX_EDGES:
        raise CapacityError(f"tensor product would span {n} edges, cap is {MAX_EDGES}")
    return StateVector(n, np.kron(a.amplitudes, b.amplitudes))

