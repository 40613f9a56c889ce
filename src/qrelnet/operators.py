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
from .graphs import Graph, MAX_EDGES, component_traces, connectivity_flags
from .partitions import ConnectivityMatrix, Partition, connectivity_matrix
from .states import StateVector


@dataclass(frozen=True, eq=False)
class DiagonalOperator:
    """Operator that is diagonal in the edge-configuration basis.

    ``diag`` is a read-only copy of the entries as an ndarray.  Entries are
    exact (integers, or ``Fraction``s in an object array); projectors carry
    only 0 and 1.
    """

    num_edges: int
    diag: np.ndarray

    def __post_init__(self):
        if not 0 <= self.num_edges <= MAX_EDGES:
            raise QrelnetError(f"operators support 0..{MAX_EDGES} edges", code="capacity")
        diag = np.array(self.diag)
        if diag.shape != (1 << self.num_edges,):
            raise WidthMismatchError(f"expected {1 << self.num_edges} diagonal entries, got shape {diag.shape}")
        diag.flags.writeable = False
        object.__setattr__(self, "diag", diag)

    def is_projector(self) -> bool:
        return bool(((self.diag == 0) | (self.diag == 1)).all())

    def as_float(self) -> np.ndarray:
        return self.diag.astype(float)


def qr_operator(g: Graph) -> DiagonalOperator:
    """Connectivity projector of a graph: diag[state] = 1 iff state connects it."""
    return DiagonalOperator(g.num_edges, connectivity_flags(g))


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
    return DiagonalOperator(h.num_edges, hits[ids])


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


def quotient_table(g: Graph, shared, cm: ConnectivityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Connectivity of every quotient ``g / cm.order[i]``, from one frontier pass.

    Returns ``(table, ids)`` with ``table[i][ids]`` equal to the diagonal of
    ``qr_operator`` on the quotient graph of ``g`` by ``cm.order[i]``.  The
    pass keeps the shared vertices live, so ``ids`` maps each state to its
    component trace on them.  A state connects ``g / gamma`` exactly when it
    leaves no island and its trace joins ``gamma`` into one block
    (``QR(g/gamma)`` is the alpha-weighted sum of the ``O_gamma'``), so
    ``table[i, s]`` is alpha between ``cm.order[i]`` and the trace of final
    state ``s``, and 0 on the dead state.
    """
    ids, finals = component_traces(g, shared)
    index = {p: i for i, p in enumerate(cm.order)}
    table = np.zeros((len(cm.order), len(finals)), dtype=np.uint8)
    table[:, 1:] = cm.alpha[:, [index[f] for f in finals[1:]]]
    return table, ids


def split_sides(k: Graph, h: Graph, shared):
    """Check the cut; return ``(cm, (k_table, k_ids), (h_table, h_ids))``, one frontier pass per side."""
    union_graph(k, h, shared)  # validates the overlap and the combined edge count
    if not shared:
        raise QrelnetError("splitting needs at least one shared vertex", code="invalid_partition")
    cm = connectivity_matrix(shared)
    return cm, quotient_table(k, shared, cm), quotient_table(h, shared, cm)


def quotient_values(side, psi: StateVector) -> list[float]:
    """``qr_value`` on ``psi`` of every quotient in a ``(table, ids)`` side, a row at a time."""
    table, ids = side
    return [qr_value(DiagonalOperator(psi.num_edges, row[ids]), psi) for row in table]


def split_terms(cm: ConnectivityMatrix, left, right) -> list[tuple[int, int, int, float]]:
    """``(i, j, n, n / den * left[i] * right[j])`` for every ``(i, j, n)`` of ``weight_pairs``."""
    den = cm.denominator  # n / den is correctly rounded: the bits of float(beta[i][j])
    return [(i, j, n, n / den * left[i] * right[j]) for i, j, n in cm.weight_pairs()]


def sum_in_order(values) -> float:
    """Float sum strictly left to right; the builtin ``sum`` is compensated from Python 3.12 on."""
    total = 0.0
    for x in values:
        total += x
    return total


def split_sum(cm: ConnectivityMatrix, left, right) -> float:
    """``sum of beta[i][j] * left[i] * right[j]`` in floats, in ``weight_pairs`` order."""
    return sum_in_order(term[3] for term in split_terms(cm, left, right))


def split_operator(k: Graph, h: Graph, shared) -> DiagonalOperator:
    """Reliability operator of the glued network, assembled from quotients.

    Computes ``sum over (gamma, gamma') of beta[gamma][gamma'] *
    QR(k/gamma) (x) QR(h/gamma')`` exactly, as one int64 product with beta
    scaled to a common denominator.  The result acts on the union's edge
    order: ``h`` low bits, ``k`` high bits.
    """
    cm, (kt, kids), (ht, hids) = split_sides(k, h, shared)
    kd, hd = kt[:, kids], ht[:, hids]
    # Row sk, column sh is state sk * 2^|E_h| + sh, so flattening keeps k-major
    # order.  0/1 sides keep every partial sum within the absolute sum of
    # cm.scaled, which matrix_for_order bounds below int64.
    scaled = (kd.T @ (cm.scaled @ hd)).ravel()
    whole, rest = np.divmod(scaled, cm.denominator)
    if rest.any():
        whole = np.array([Fraction(x, cm.denominator) for x in scaled.tolist()], dtype=object)
    return DiagonalOperator(k.num_edges + h.num_edges, whole)


def verify_split(k: Graph, h: Graph, shared) -> bool:
    """Exact entrywise check of the splitting against the direct operator."""
    assembled = split_operator(k, h, shared)
    direct = qr_operator(union_graph(k, h, shared))
    return np.array_equal(assembled.diag, direct.diag)


def qr_split_value(k: Graph, h: Graph, shared, psi_k: StateVector, psi_h: StateVector) -> float:
    """Quantum reliability of the glued network on a product-across-the-cut state.

    Evaluates the splitting formula numerically: beta-weighted sum of
    per-quotient expectations.  Agrees with the direct expectation on
    ``tensor(psi_k, psi_h)`` to float accuracy.
    """
    for g, psi in ((k, psi_k), (h, psi_h)):
        if psi.num_edges != g.num_edges:
            raise WidthMismatchError(f"state spans {psi.num_edges} edges, graph has {g.num_edges}")
    cm, k_side, h_side = split_sides(k, h, shared)
    return split_sum(cm, quotient_values(k_side, psi_k), quotient_values(h_side, psi_h))


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
    if seed < 0:
        raise QrelnetError(f"seed must be non-negative, got {seed}", code="invalid_input")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(psi.probabilities())
    # The estimate counts flags, so the draws' order is free; sorted draws
    # walk the cumulative table in one direction.
    draws = np.sort(rng.random(n))
    states = np.searchsorted(cdf, draws, side="right")
    np.clip(states, 0, g.num_states - 1, out=states)
    flags = qr_operator(g).as_float()
    estimate = float(np.mean(flags[states]))
    stderr = sqrt(estimate * (1.0 - estimate) / n)
    return BornEstimate(estimate, stderr)
