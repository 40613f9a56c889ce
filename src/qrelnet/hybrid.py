"""Networks mixing quantum and classical edges.

A hybrid network is one graph whose edges are tagged quantum or classical.
The canonical decomposition splits it into the quantum subgraph, the
classical subgraph, and their shared vertices; the splitting weights then
combine per-quotient quantum reliabilities with per-quotient classical
reliabilities.  When the quantum subgraph sits entirely on classical
vertices it is a sublayer, and the value decomposes into the classical
baseline plus correction terms, one per pair of non-trivial partitions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .classical import bernoulli_rows, check_probabilities, reliability_enumerate, sum_in_order, weigh_rows
from .errors import QrelnetError, Record, SublayerError, WidthMismatchError
from .graphs import Graph
from .operators import quantum_reliability, split_sides, split_sum, split_terms, union_graph
from .partitions import Partition, single_block, singletons

# The CLI's tagged-graph parser imports this module, so the state module,
# and with it any numpy, loads only where a state is built.
if TYPE_CHECKING:
    from .states import StateVector

QUANTUM = "quantum"
CLASSICAL = "classical"


class Decomposition(Record):
    """Quantum subgraph, classical subgraph, and their shared vertices."""

    _fields = ("quantum", "classical", "shared")

    def __init__(self, quantum: Graph, classical: Graph, shared: tuple[str, ...]):
        self._set(quantum=quantum, classical=classical, shared=shared)


class HybridState(Record):
    """Quantum amplitudes for the quantum edges, probabilities for the rest."""

    _fields = ("quantum", "classical")

    def __init__(self, quantum: StateVector, classical: tuple):
        self._set(quantum=quantum, classical=tuple(check_probabilities(classical)))


def canonical_decomposition(g: Graph, kinds) -> Decomposition:
    """Split a tagged graph into its quantum and classical parts.

    Each part keeps the vertices its edges touch, in the original vertex
    order; vertices with no incident edge at all go to the classical part, so
    the two parts always glue back to the input graph.  Edge order within
    each part follows the input.
    """
    kinds = list(kinds)
    if len(kinds) != g.num_edges:
        raise WidthMismatchError(f"{len(kinds)} edge tags for {g.num_edges} edges")
    for kind in kinds:
        if kind not in (QUANTUM, CLASSICAL):
            raise QrelnetError(f"edge kind must be {QUANTUM!r} or {CLASSICAL!r}, got {kind!r}", code="invalid_graph")

    q_edges = tuple(e for e, kind in zip(g.edges, kinds) if kind == QUANTUM)
    c_edges = tuple(e for e, kind in zip(g.edges, kinds) if kind == CLASSICAL)
    q_touch = {v for e in q_edges for v in e}
    c_touch = {v for e in c_edges for v in e}
    c_touch |= {v for v in g.vertices if v not in q_touch and v not in c_touch}

    k = Graph(tuple(v for v in g.vertices if v in q_touch), q_edges)
    h = Graph(tuple(v for v in g.vertices if v in c_touch), c_edges)
    shared = tuple(v for v in g.vertices if v in q_touch and v in c_touch)
    return Decomposition(k, h, shared)


def _check_inputs(decomp: Decomposition, state: HybridState) -> None:
    union_graph(decomp.quantum, decomp.classical, decomp.shared)  # the overlap and the combined edge count
    if state.quantum.num_edges != decomp.quantum.num_edges:
        raise WidthMismatchError(
            f"quantum state spans {state.quantum.num_edges} edges, subgraph has {decomp.quantum.num_edges}"
        )
    if len(state.classical) != decomp.classical.num_edges:
        raise WidthMismatchError(
            f"{len(state.classical)} probabilities for {decomp.classical.num_edges} classical edges"
        )


def _quotient_reliabilities(decomp: Decomposition, state: HybridState):
    """The weights and the quantum and classical reliability of every quotient."""
    cm, k_side, h_side = split_sides(decomp.quantum, decomp.classical, decomp.shared)
    return cm, weigh_rows(*k_side, state.quantum.weights), list(map(float, bernoulli_rows(*h_side, state.classical)))


def hybrid_qr(decomp: Decomposition, state: HybridState) -> float:
    """Reliability of a hybrid network via the splitting weights.

    Degenerate shapes take their limits: no quantum vertices leaves the
    classical reliability, no classical vertices leaves the quantum
    reliability, and two non-empty parts sharing nothing can never connect.
    """
    _check_inputs(decomp, state)
    k, h, shared = decomp.quantum, decomp.classical, decomp.shared
    if not k.vertices:
        return float(reliability_enumerate(h, list(state.classical)))
    if not h.vertices:
        return quantum_reliability(k, state.quantum)
    if not shared:
        return 0.0
    return split_sum(*_quotient_reliabilities(decomp, state))


class CorrectionTerm(NamedTuple):
    gamma: Partition
    gamma_prime: Partition
    weight: Fraction
    value: float


class SublayerResult(NamedTuple):
    total: float
    classical: float
    corrections: tuple[CorrectionTerm, ...]


def sublayer_qr(decomp: Decomposition, state: HybridState) -> SublayerResult:
    """Classical baseline plus quantum corrections for a sublayer network.

    Requires every quantum vertex to also be classical.  The single-block
    row of the weights reproduces the bare classical reliability, so the
    total is that baseline plus one correction term per remaining pair of
    partitions with nonzero weight.  An inoperative sublayer (quantum state
    concentrated on the all-edges-down configuration) contributes exactly
    zero correction.
    """
    _check_inputs(decomp, state)
    k, h, shared = decomp.quantum, decomp.classical, decomp.shared
    if not set(k.vertices) <= set(h.vertices):
        raise SublayerError("quantum subgraph must live on classical vertices")
    if not k.vertices:
        baseline = float(reliability_enumerate(h, list(state.classical)))
        return SublayerResult(baseline, baseline, ())
    # The overlap check left shared equal to k's vertices, and h / singletons is h.
    cm, qk, rh = _quotient_reliabilities(decomp, state)
    baseline = rh[cm.order.index(singletons(shared))]
    ti = cm.order.index(single_block(shared))
    corrections = tuple(
        CorrectionTerm(cm.order[i], cm.order[j], Fraction(n, cm.denominator), value)
        for i, j, n, value in split_terms(cm, qk, rh) if i != ti
    )
    return SublayerResult(baseline + sum_in_order([c.value for c in corrections]), baseline, corrections)
