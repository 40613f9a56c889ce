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
from dataclasses import dataclass
from typing import NamedTuple

from .classical import check_probabilities, enumerate_flags, reliability_enumerate
from .errors import QrelnetError, SublayerError, WidthMismatchError
from .graphs import Graph
from .operators import (
    qr_operator, qr_value, quotient_values, split_sides, split_sum, split_terms, sum_in_order, union_graph,
)
from .partitions import Partition, single_block, singletons
from .states import StateVector

QUANTUM = "quantum"
CLASSICAL = "classical"


@dataclass(frozen=True)
class Decomposition:
    """Quantum subgraph, classical subgraph, and their shared vertices."""

    quantum: Graph
    classical: Graph
    shared: tuple[str, ...]
    quantum_edge_indices: tuple[int, ...]
    classical_edge_indices: tuple[int, ...]


@dataclass(frozen=True)
class HybridState:
    """Quantum amplitudes for the quantum edges, probabilities for the rest."""

    quantum: StateVector
    classical: tuple

    def __post_init__(self):
        object.__setattr__(self, "classical", tuple(check_probabilities(self.classical)))


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

    q_idx = tuple(i for i, kind in enumerate(kinds) if kind == QUANTUM)
    c_idx = tuple(i for i, kind in enumerate(kinds) if kind == CLASSICAL)
    q_touch = {v for i in q_idx for v in g.edges[i]}
    c_touch = {v for i in c_idx for v in g.edges[i]}
    c_touch |= {v for v in g.vertices if v not in q_touch and v not in c_touch}

    k = Graph(tuple(v for v in g.vertices if v in q_touch), tuple(g.edges[i] for i in q_idx))
    h = Graph(tuple(v for v in g.vertices if v in c_touch), tuple(g.edges[i] for i in c_idx))
    shared = tuple(v for v in g.vertices if v in q_touch and v in c_touch)
    return Decomposition(k, h, shared, q_idx, c_idx)


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
    cm, k_side, (table, ids) = split_sides(decomp.quantum, decomp.classical, decomp.shared)
    rh = [float(enumerate_flags(row[ids], state.classical)) for row in table]
    return cm, quotient_values(k_side, state.quantum), rh


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
        return qr_value(qr_operator(k), state.quantum)
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
    return SublayerResult(baseline + sum_in_order(c.value for c in corrections), baseline, corrections)
