"""Diagonal operators on the edge-configuration basis and the exact splitting.

The reliability operator of a graph is the projector whose diagonal marks the
connected edge states; its expectation on a state is the quantum reliability.
For a network glued from two graphs along shared vertices, the same operator
splits into an exact rational combination of quotient-graph operators; the
weights are the inverse connectivity matrix of the shared vertex set.
"""

from __future__ import annotations

from math import sqrt
from typing import TYPE_CHECKING, NamedTuple

from .classical import sum_in_order, weigh_rows
from .errors import CapacityError, OverlapError, QrelnetError, WidthMismatchError
from .graphs import Graph, component_traces, frontier_lists, traces
from .partitions import ConnectivityMatrix, Partition, connectivity_matrix, contract

# numpy and the state module load in the functions that build arrays, so
# ``split-verify``, and ``qr``, ``hybrid`` and ``sublayer`` on states held in
# lists, run without them.
if TYPE_CHECKING:
    import numpy as np

    from .states import StateVector


def _frozen(diag: np.ndarray) -> np.ndarray:
    diag.flags.writeable = False
    return diag


def qr_operator(g: Graph) -> np.ndarray:
    """Read-only ``uint8`` diagonal of the connectivity projector: 1 iff the state connects ``g``.

    One kept vertex turns "no island" into "one component" and leaves one
    live final state, numbered 1, so the trace ids are the flags.
    """
    import numpy as np

    return _frozen(component_traces(g, g.vertices[:1])[0].astype(np.uint8))


def qr_value(op, psi: StateVector) -> float:
    """Expectation of a diagonal operator on a state, summed in state order by ``sum_in_order``.

    ``op`` is the diagonal, one number per edge state: integers, floats or
    ``Fraction``s, as an array or array-like.
    """
    import numpy as np

    op = np.asarray(op)
    size = (1 << psi.num_edges,)
    if op.shape != size:
        raise WidthMismatchError(f"operator has shape {op.shape}, state has {size}")
    return sum_in_order(op.astype(float) * psi.weights)


def quantum_reliability(g: Graph, psi: StateVector) -> float:
    """``qr_value(qr_operator(g), psi)``, to the same bits.

    The Born weights ``psi.weights``, by :func:`~qrelnet.classical.weigh_rows`,
    of the states whose :func:`~qrelnet.graphs.traces` leave no island.
    """
    if psi.num_edges != g.num_edges:
        raise WidthMismatchError(f"state spans {psi.num_edges} edges, graph has {g.num_edges}")
    ids, finals = traces(g, g.vertices[:1])
    return weigh_rows([[f is not None for f in finals]], ids, psi.weights)[0]


def o_gamma_operator(h: Graph, u, gamma: Partition) -> np.ndarray:
    """Read-only ``uint8`` diagonal of the projector onto states whose trace on ``u`` is ``gamma``.

    States with an island (a component disjoint from ``u``) are annihilated
    by every such projector, so the family sums to the island-free indicator,
    not the identity.
    """
    if gamma.ground_set() != set(u):
        raise QrelnetError("partition does not cover exactly the given subset", code="invalid_partition")
    import numpy as np

    ids, finals = component_traces(h, u)
    hits = np.array([f == gamma for f in finals], dtype=np.uint8)
    return _frozen(hits[ids])


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


def _quotient_rows(cm: ConnectivityMatrix, finals) -> list[list[int]]:
    """Row ``i``: alpha between ``cm.order[i]`` and each final trace, 0 on the dead state ``finals[0]``."""
    index = {p: i for i, p in enumerate(cm.order)}
    columns = [index[f] for f in finals[1:]]
    return [[0, *map(row.__getitem__, columns)] for row in cm.alpha]


def _split_weights(k: Graph, h: Graph, shared) -> tuple[Graph, ConnectivityMatrix]:
    """Check the cut; return the glued graph and the weights over the shared set.

    Every splitting entry point starts here, so each raises the same error
    codes in the same order.
    """
    union = union_graph(k, h, shared)  # validates the overlap and the combined edge count
    if not shared:
        raise QrelnetError("splitting needs at least one shared vertex", code="invalid_partition")
    return union, connectivity_matrix(shared)


def quotient_side(g: Graph, shared, cm: ConnectivityMatrix):
    """``(rows, ids)`` of every quotient ``g / cm.order[i]``: ``rows[i][ids[s]]`` flags state ``s``.

    ``ids`` are the traces on ``shared`` from :func:`~qrelnet.graphs.traces`.
    A state connects ``g / gamma`` exactly when it leaves no island and its
    trace joins ``gamma`` into one block (``QR(g/gamma)`` is the
    alpha-weighted sum of the ``O_gamma'``): the :func:`_quotient_rows`.
    """
    ids, finals = traces(g, shared)
    return _quotient_rows(cm, finals), ids


def split_sides(k: Graph, h: Graph, shared):
    """Check the cut; return ``(cm, k_side, h_side)``, one :func:`quotient_side` each."""
    _, cm = _split_weights(k, h, shared)
    return cm, quotient_side(k, shared, cm), quotient_side(h, shared, cm)


def split_terms(cm: ConnectivityMatrix, left, right) -> list[tuple[int, int, int, float]]:
    """``(i, j, n, n / den * left[i] * right[j])`` for every ``(i, j, n)`` of ``weight_pairs``."""
    den = cm.denominator  # n / den is correctly rounded: the bits of float(beta[i][j])
    return [(i, j, n, n / den * left[i] * right[j]) for i, j, n in cm.weight_pairs()]


def split_sum(cm: ConnectivityMatrix, left, right) -> float:
    """``sum of beta[i][j] * left[i] * right[j]`` in floats, in ``weight_pairs`` order."""
    return sum_in_order([term[3] for term in split_terms(cm, left, right)])


def split_operator(k: Graph, h: Graph, shared) -> np.ndarray:
    """Reliability operator of the glued network, assembled from quotients.

    Computes ``sum over (gamma, gamma') of beta[gamma][gamma'] *
    QR(k/gamma) (x) QR(h/gamma')`` exactly: ``partitions.contract`` sums
    beta, scaled to a common denominator, over the quotient rows of the two
    :func:`split_sides`; that small table of final-state pairs holds the
    denominator times 0 or 1 (the splitting identity), so it is divided
    exactly, and every state pair gathers its entry.  The result is a
    read-only ``int64`` diagonal on the union's edge order: ``h`` low bits,
    ``k`` high bits.
    """
    cm, (k_rows, k_ids), (h_rows, h_ids) = split_sides(k, h, shared)
    import numpy as np

    whole = np.array(contract(cm, k_rows, h_rows), dtype=np.int64) // cm.denominator
    # Row sk, column sh is state sk * 2^|E_h| + sh; intp ids, no lists, are held at the gather.
    k_ids, h_ids = np.asarray(k_ids, dtype=np.intp), np.asarray(h_ids, dtype=np.intp)
    return _frozen(whole[k_ids[:, None], h_ids].reshape(-1))


def verify_split(k: Graph, h: Graph, shared) -> bool:
    """Exact entrywise check of the splitting against the direct operator, with no numpy.

    Runs the frontier automata of the union (kept set: one vertex), of
    ``h`` and of ``k`` (kept set: ``shared``) in lockstep over the union's
    edges, ``h``'s first, and keeps the reachable tuples of their states.
    Every edge state ends in one triple ``(union final, h final b, k final
    a)``, and every such triple comes from some state, so the splitting
    holds on every state exactly when ``table[a][b]``, beta times the
    denominator contracted over the :func:`_quotient_rows` of the finals
    ``a`` and ``b``, is the denominator on the triples whose union final
    is connected and 0 on the others.  After ``t`` edges at most
    ``2 ** t`` tuples are held, never the ``2 ** |E|`` states.
    """
    union, cm = _split_weights(k, h, shared)
    k_start, k_tables, k_finals = frontier_lists(k, shared)
    h_start, h_tables, h_finals = frontier_lists(h, shared)
    u_start, u_tables, u_finals = frontier_lists(union, union.vertices[:1])
    table = contract(cm, _quotient_rows(cm, k_finals), _quotient_rows(cm, h_finals))
    pairs = {(u_start, h_start)}
    for (u0, u1), (h0, h1) in zip(u_tables, h_tables):
        pairs = {(u0[u], h0[b]) for u, b in pairs} | {(u1[u], h1[b]) for u, b in pairs}
    triples = {(u, b, k_start) for u, b in pairs}
    for (u0, u1), (k0, k1) in zip(u_tables[h.num_edges:], k_tables):
        triples = {(u0[u], b, k0[a]) for u, b, a in triples} | {(u1[u], b, k1[a]) for u, b, a in triples}
    den = cm.denominator
    return all(den * (u_finals[u] is not None) == table[a][b] for u, b, a in triples)


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
    return split_sum(cm, weigh_rows(*k_side, psi_k.weights), weigh_rows(*h_side, psi_h.weights))


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
    import numpy as np

    if n > np.iinfo(np.intp).max:
        raise CapacityError(f"sample count {n} exceeds {np.iinfo(np.intp).max}")
    if seed < 0:
        raise QrelnetError(f"seed must be non-negative, got {seed}", code="invalid_input")
    rng = np.random.default_rng(seed)
    probs = np.asarray(psi.weights)
    cdf = np.cumsum(probs)
    # The estimate counts flags, so the draws' order is free; sorted draws
    # walk the cumulative table in one direction.
    draws = np.sort(rng.random(n))
    states = np.searchsorted(cdf, draws, side="right")
    # cdf[-1] may end below 1: later draws take the last state of positive weight.
    np.clip(states, 0, np.flatnonzero(probs)[-1], out=states)
    flags = qr_operator(g).astype(float)
    estimate = float(np.mean(flags[states]))
    stderr = sqrt(estimate * (1.0 - estimate) / n)
    return BornEstimate(estimate, stderr)
