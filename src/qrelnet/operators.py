"""Diagonal operators on the edge-configuration basis and the exact splitting.

The reliability operator of a graph is the projector whose diagonal marks the
connected edge states; its expectation on a state is the quantum reliability.
For a network glued from two graphs along shared vertices, the same operator
splits into an exact rational combination of quotient-graph operators; the
weights are the inverse connectivity matrix of the shared vertex set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, OverlapError, QrelnetError, WidthMismatchError
from .graphs import Graph, MAX_EDGES, component_traces, connectivity_flags, quotient
from .partitions import Partition, connectivity_matrix
from .states import StateVector


@dataclass(frozen=True)
class DiagonalOperator:
    """Operator that is diagonal in the edge-configuration basis.

    Entries are exact (ints or rationals); projectors carry only 0 and 1.
    """

    num_edges: int
    diag: tuple

    def __post_init__(self):
        if not 0 <= self.num_edges <= MAX_EDGES:
            raise QrelnetError(f"operators support 0..{MAX_EDGES} edges", code="capacity")
        diag = tuple(self.diag)
        if len(diag) != 1 << self.num_edges:
            raise WidthMismatchError(f"expected {1 << self.num_edges} diagonal entries, got {len(diag)}")
        object.__setattr__(self, "diag", diag)

    def is_projector(self) -> bool:
        return all(x == 0 or x == 1 for x in self.diag)

    def as_float(self) -> np.ndarray:
        return np.array(self.diag, dtype=float)


def qr_operator(g: Graph) -> DiagonalOperator:
    """Connectivity projector of a graph: diag[state] = 1 iff state connects it."""
    return DiagonalOperator(g.num_edges, tuple(connectivity_flags(g).tolist()))


def qr_value(op: DiagonalOperator, psi: StateVector) -> float:
    """Expectation of a diagonal operator on a state (real by construction)."""
    if op.num_edges != psi.num_edges:
        raise WidthMismatchError(f"operator spans {op.num_edges} edges, state spans {psi.num_edges}")
    return float(np.dot(op.as_float(), psi.probabilities()))


def o_gamma_operator(h: Graph, u, gamma: Partition) -> DiagonalOperator:
    """Projector onto states whose component trace on ``u`` is exactly ``gamma``.

    States with an island (a component disjoint from ``u``) are annihilated
    by every such projector, so the family sums to the island-free indicator,
    not the identity.
    """
    if gamma.ground_set() != set(u):
        raise QrelnetError("partition does not cover exactly the given subset", code="invalid_partition")
    ids, finals = component_traces(h, u)
    hits = np.array([f == gamma for f in finals], dtype=np.uint8)
    return DiagonalOperator(h.num_edges, tuple(hits[ids].tolist()))


def union_graph(k: Graph, h: Graph, shared) -> Graph:
    """Glue two graphs that overlap exactly on ``shared``.

    The union lists the second graph's edges first, so its states occupy the
    low bits and the first graph's the high bits, matching ``tensor``.
    """
    shared_set = set(shared)
    overlap = set(k.vertices) & set(h.vertices)
    if overlap != shared_set:
        raise OverlapError(
            f"graphs overlap on {sorted(overlap)}, declared shared set is {sorted(shared_set)}"
        )
    vertices = h.vertices + tuple(v for v in k.vertices if v not in shared_set)
    return Graph(vertices, h.edges + k.edges)


def _quotient_diagonals(g: Graph, shared, parts) -> np.ndarray:
    return np.array([qr_operator(quotient(g, shared, p)).diag for p in parts], dtype=np.uint8)


def split_operator(k: Graph, h: Graph, shared) -> DiagonalOperator:
    """Reliability operator of the glued network, assembled from quotients.

    Computes ``sum over (gamma, gamma') of beta[gamma][gamma'] *
    QR(k/gamma) (x) QR(h/gamma')`` exactly, as one int64 product with beta
    scaled to a common denominator.  The result acts on the union's edge
    order: ``h`` low bits, ``k`` high bits.
    """
    union_graph(k, h, shared)  # validates the overlap and the combined edge count
    if not shared:
        raise QrelnetError("splitting needs at least one shared vertex", code="invalid_partition")
    cm = connectivity_matrix(shared)
    kd = _quotient_diagonals(k, shared, cm.order)
    hd = _quotient_diagonals(h, shared, cm.order)
    # Row sk, column sh is state sk * 2^|E_h| + sh, so flattening keeps k-major
    # order.  0/1 sides keep every partial sum within the absolute sum of
    # cm.scaled, which matrix_for_order bounds below int64.
    scaled = (kd.T @ (cm.scaled @ hd)).ravel()
    whole, rest = np.divmod(scaled, cm.denominator)
    diag = [Fraction(x, cm.denominator) for x in scaled.tolist()] if rest.any() else whole.tolist()
    return DiagonalOperator(k.num_edges + h.num_edges, tuple(diag))


def verify_split(k: Graph, h: Graph, shared) -> bool:
    """Exact entrywise check of the splitting against the direct operator."""
    assembled = split_operator(k, h, shared)
    direct = qr_operator(union_graph(k, h, shared))
    return assembled.diag == direct.diag


def qr_split_value(k: Graph, h: Graph, shared, psi_k: StateVector, psi_h: StateVector) -> float:
    """Quantum reliability of the glued network on a product-across-the-cut state.

    Evaluates the splitting formula numerically: beta-weighted sum of
    per-quotient expectations.  Agrees with the direct expectation on
    ``tensor(psi_k, psi_h)`` to float accuracy.
    """
    if psi_k.num_edges != k.num_edges:
        raise WidthMismatchError(f"state spans {psi_k.num_edges} edges, graph has {k.num_edges}")
    if psi_h.num_edges != h.num_edges:
        raise WidthMismatchError(f"state spans {psi_h.num_edges} edges, graph has {h.num_edges}")
    union_graph(k, h, shared)
    if not shared:
        raise QrelnetError("splitting needs at least one shared vertex", code="invalid_partition")
    cm = connectivity_matrix(shared)
    parts = cm.order
    qk = [qr_value(qr_operator(quotient(k, shared, p)), psi_k) for p in parts]
    qh = [qr_value(qr_operator(quotient(h, shared, p)), psi_h) for p in parts]
    total = 0.0
    for i, j, b in cm.weight_pairs():
        total += float(b) * qk[i] * qh[j]
    return total


class BornEstimate(NamedTuple):
    estimate: float
    stderr: float


def born_sample(g: Graph, psi: StateVector, n: int, seed: int) -> BornEstimate:
    """Monte Carlo quantum reliability: sample configurations, look up connectivity.

    Draws ``n`` edge states from the Born distribution of ``psi`` with a
    seeded generator, returns the connected fraction and its binomial
    standard error.  Same seed, same output, bit for bit.
    """
    if psi.num_edges != g.num_edges:
        raise WidthMismatchError(f"state spans {psi.num_edges} edges, graph has {g.num_edges}")
    if n < 1:
        raise QrelnetError(f"sample count must be positive, got {n}", code="invalid_input")
    if n > np.iinfo(np.intp).max:
        raise CapacityError(f"sample count {n} exceeds {np.iinfo(np.intp).max}")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(psi.probabilities())
    draws = rng.random(n)
    states = np.searchsorted(cdf, draws, side="right")
    np.clip(states, 0, g.num_states - 1, out=states)
    flags = qr_operator(g).as_float()
    estimate = float(np.mean(flags[states]))
    stderr = sqrt(estimate * (1.0 - estimate) / n)
    return BornEstimate(estimate, stderr)
