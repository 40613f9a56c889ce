"""Complex state vectors over edge configurations.

A state on ``n`` edges is a unit vector of ``2 ** n`` complex amplitudes;
basis index ``i`` is the bitmask of active edges, so edge ``k`` owns bit
``k``.  Tensoring puts the left factor in the high bits.  Vectors whose norm
drifts beyond ``NORM_TOL`` are rejected outright, never renormalized.

Every complex product is ``(ac - bd, ad + bc)`` and every Born weight is
``re * re + im * im``, each operation rounded on its own, and the norm is
summed in state order by :func:`~qrelnet.classical.sum_in_order`.  Python
floats do the same operations bit for bit, and no numpy loop can fuse or
reorder them, so no printed value depends on the SIMD code numpy picks for
the CPU.  A state of :func:`~qrelnet.graphs.in_lists` edges is built in
Python float lists, with no numpy, a larger one in float64 arrays; either
way its Born weights are computed once, and every consumer reads them.
"""

from __future__ import annotations

import cmath
from math import isfinite, sqrt
from typing import TYPE_CHECKING

from .classical import CHUNK_BITS, sum_in_order
from .errors import CapacityError, NormalizationError, QrelnetError, Record
from .graphs import MAX_EDGES, check_state, in_lists

if TYPE_CHECKING:
    import numpy as np

NORM_TOL = 1e-10


class StateVector(Record):
    """Unit-norm complex amplitudes over the edge-configuration basis.

    A state holds its real and imaginary parts and its Born weights,
    ``weights``, computed once: two Python float lists and a tuple where
    ``in_lists(num_edges)``; two float64 arrays and a read-only one past
    that.  ``amplitudes`` is the read-only complex128 array either way,
    built from the parts on first read.  States compare by identity.
    """

    _fields = ("num_edges", "amplitudes")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, num_edges: int, amplitudes):
        if not 0 <= num_edges <= MAX_EDGES:
            raise CapacityError(f"states support 0..{MAX_EDGES} edges, got {num_edges}")
        import numpy as np

        amps = np.array(amplitudes, dtype=np.complex128)
        if amps.shape != (1 << num_edges,):
            raise QrelnetError(
                f"expected {1 << num_edges} amplitudes, got shape {amps.shape}",
                code="invalid_state",
            )
        if in_lists(num_edges):
            self._init(num_edges, amps.real.tolist(), amps.imag.tolist())
        else:
            self._init(num_edges, amps.real, amps.imag)
        amps.setflags(write=False)
        self.__dict__["_array"] = amps

    @classmethod
    def _of(cls, num_edges: int, parts) -> StateVector:
        """The state of ``(re, im)``: float lists where ``in_lists(num_edges)``, float64 arrays past that.

        Past that, given lists become arrays here, with the same bits.
        """
        if not in_lists(num_edges):
            import numpy as np

            parts = [np.asarray(x, dtype=np.float64) for x in parts]
        state = object.__new__(cls)
        state._init(num_edges, *parts)
        return state

    def _init(self, num_edges: int, re, im) -> None:
        weights = _born(re, im)
        norm_sq = sum_in_order(weights)
        # A huge finite amplitude squares to inf, so only the parts tell "not finite".
        if not isfinite(norm_sq) and not _finite(re, im):
            raise QrelnetError("amplitudes must be finite", code="invalid_state")
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise NormalizationError(f"state norm^2 is {norm_sq!r}, must be 1 within {NORM_TOL}")
        self._set(num_edges=num_edges, weights=weights, _parts=(re, im), _array=None)

    @property
    def amplitudes(self) -> np.ndarray:
        if self._array is None:
            import numpy as np

            array = np.empty(1 << self.num_edges, dtype=np.complex128)
            array.real, array.imag = self._parts
            array.setflags(write=False)
            self.__dict__["_array"] = array
        return self._array

    def probabilities(self) -> np.ndarray:
        """Born weights of the basis states, ``re * re + im * im``, as a new float64 array."""
        import numpy as np

        return np.array(self.weights)


def _born(re, im):
    if isinstance(re, list):
        return tuple([x * x + y * y for x, y in zip(re, im)])
    import numpy as np

    step = 1 << CHUNK_BITS  # im * im a chunk at a time, so no second full-size array is made
    with np.errstate(over="ignore"):  # a huge finite amplitude squares to inf
        weights = re * re
        for i in range(0, weights.size, step):
            weights[i : i + step] += im[i : i + step] * im[i : i + step]
    weights.flags.writeable = False
    return weights


def _finite(re, im) -> bool:
    if isinstance(re, list):
        return all(map(isfinite, re + im))
    import numpy as np

    return bool(np.isfinite(re).all() and np.isfinite(im).all())


def _kron(a, b, lists: bool):
    """Parts of the tensor product, ``a`` in the high bits: entry ``i * len(b) + j`` is ``a[i] * b[j]``.

    ``a`` and ``b`` are ``(re, im)`` pairs; the result is a pair of float
    lists if ``lists``, else of float64 arrays.  Either way each product is
    ``(ac - bd, ad + bc)``, one rounding per operation.  Arrays, whose
    lengths are powers of two, are written a block of ``2 ** CHUNK_BITS``
    entries at a time, through one reused temporary.
    """
    (ar, ai), (br, bi) = a, b
    if lists:
        pairs = list(zip(br, bi))
        return ([xr * yr - xi * yi for xr, xi in zip(ar, ai) for yr, yi in pairs],
                [xr * yi + xi * yr for xr, xi in zip(ar, ai) for yr, yi in pairs])
    import numpy as np

    outer = np.multiply.outer
    re, im = np.empty((len(ar), len(br))), np.empty((len(ar), len(br)))
    step = max(1, (1 << CHUNK_BITS) // len(br))
    tmp = np.empty((min(step, len(ar)), len(br)))
    for i in range(0, len(ar), step):
        rows = slice(i, i + step)
        outer(ar[rows], br, out=re[rows])
        re[rows] -= outer(ai[rows], bi, out=tmp)
        outer(ar[rows], bi, out=im[rows])
        im[rows] += outer(ai[rows], br, out=tmp)
    return re.reshape(-1), im.reshape(-1)


def _check_phase(phase: complex) -> None:
    # NaN fails every comparison, so the distance test alone would pass it.
    if not cmath.isfinite(phase) or abs(abs(phase) - 1.0) > NORM_TOL:
        raise QrelnetError(f"phase {phase!r} must lie on the unit circle", code="invalid_state")


def _phased(r: float, phase: complex) -> tuple[float, float]:
    """``r * phase`` as ``(r, 0) * phase``, one rounding per operation."""
    return r * phase.real - 0.0 * phase.imag, r * phase.imag + 0.0 * phase.real


class QubitSpec(Record):
    """One edge's marginal: active with probability ``p``, inactive with phase ``phase``."""

    _fields = ("p", "phase")

    def __init__(self, p: float, phase: complex = 1.0 + 0j):
        if not 0 <= p <= 1:
            raise QrelnetError(f"qubit probability {p} outside [0, 1]", code="invalid_probability")
        _check_phase(phase)
        self._set(p=p, phase=phase)


def _qubit_parts(spec: QubitSpec) -> tuple[list[float], list[float]]:
    re, im = _phased(sqrt(1.0 - spec.p), spec.phase)
    return [re, sqrt(spec.p)], [im, 0.0]


def qubit(spec: QubitSpec) -> StateVector:
    """Single-edge state ``sqrt(1-p) * phase |0> + sqrt(p) |1>``."""
    return StateVector._of(1, _qubit_parts(spec))


def product_state(specs) -> StateVector:
    """Independent qubits, one per edge; spec ``i`` drives bit ``i``.  No specs give the 0-edge state ``[1]``."""
    specs = list(specs)
    if len(specs) > MAX_EDGES:
        raise CapacityError(f"product states support 0..{MAX_EDGES} edges, got {len(specs)}")
    lists = in_lists(len(specs))
    parts = [1.0], [0.0]
    for spec in specs:
        parts = _kron(_qubit_parts(spec), parts, lists)
    return StateVector._of(len(specs), parts)


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
    if in_lists(num_edges):
        re, im = [0.0] * size, [0.0] * size
    else:
        import numpy as np

        re, im = np.zeros(size), np.zeros(size)
    re[zeta] = sqrt(p)
    re[chi], im[chi] = _phased(sqrt(1.0 - p), phase)
    return StateVector._of(num_edges, (re, im))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Combined state with ``a`` in the high bits: index ``i_a * 2**n_b + i_b``."""
    n = a.num_edges + b.num_edges
    if n > MAX_EDGES:
        raise CapacityError(f"tensor product would span {n} edges, cap is {MAX_EDGES}")
    return StateVector._of(n, _kron(a._parts, b._parts, in_lists(n)))
