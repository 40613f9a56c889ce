"""Hybrid decomposition, mixed reliability, and the sublayer correction series."""

import math
import random

import numpy as np
import pytest

from qrelnet import (
    CLASSICAL,
    QUANTUM,
    Decomposition,
    Graph,
    HybridState,
    OverlapError,
    QrelnetError,
    QubitSpec,
    StateVector,
    SublayerError,
    WidthMismatchError,
    canonical_decomposition,
    hybrid_qr,
    product_state,
    qr_operator,
    qr_value,
    qubit,
    random_state,
    reliability_enumerate,
    single_block,
    sublayer_qr,
    tensor,
    two_term_state,
    union_graph,
)
from helpers import random_graph, random_probabilities


def tagged_triangle():
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
    kinds = [QUANTUM, CLASSICAL, CLASSICAL]
    return g, kinds


def test_canonical_decomposition_triangle():
    g, kinds = tagged_triangle()
    d = canonical_decomposition(g, kinds)
    assert d.quantum == Graph(("a", "b"), (("a", "b"),))
    assert d.classical == Graph(("a", "b", "c"), (("b", "c"), ("c", "a")))
    assert d.shared == ("a", "b")
    assert d.quantum_edge_indices == (0,)
    assert d.classical_edge_indices == (1, 2)


def test_canonical_decomposition_isolated_vertex_goes_classical():
    g = Graph(("a", "b", "z"), (("a", "b"),))
    d = canonical_decomposition(g, [QUANTUM])
    assert d.quantum == Graph(("a", "b"), (("a", "b"),))
    assert d.classical == Graph(("z",), ())
    assert d.shared == ()


def test_canonical_decomposition_validation():
    g, kinds = tagged_triangle()
    with pytest.raises(WidthMismatchError):
        canonical_decomposition(g, kinds[:2])
    with pytest.raises(QrelnetError):
        canonical_decomposition(g, ["quantum", "classical", "fiber"])


def test_hybrid_state_validation():
    with pytest.raises(QrelnetError) as hybrid_error:
        HybridState(random_state(1, 0), (1.5,))
    with pytest.raises(QrelnetError) as classical_error:
        reliability_enumerate(Graph(("a", "b"), (("a", "b"),)), [1.5])
    assert str(hybrid_error.value) == str(classical_error.value) == "edge probability 1.5 outside [0, 1]"
    assert hybrid_error.value.code == classical_error.value.code == "invalid_probability"


def test_hybrid_qr_matches_direct_tensor_path():
    rng = random.Random(83)
    for trial in range(25):
        g = random_graph(rng, 5, 7, min_vertices=2, min_edges=2, allow_loops=False)
        kinds = [QUANTUM if rng.random() < 0.4 else CLASSICAL for _ in g.edges]
        d = canonical_decomposition(g, kinds)
        if not d.shared or not d.quantum.edges or not d.classical.edges:
            continue
        psi = random_state(d.quantum.num_edges, 3000 + trial)
        probs = random_probabilities(rng, d.classical.num_edges)
        value = hybrid_qr(d, HybridState(psi, tuple(probs)))
        union = union_graph(d.quantum, d.classical, d.shared)
        full = tensor(psi, product_state([QubitSpec(p) for p in probs]))
        direct = qr_value(qr_operator(union), full)
        assert abs(value - direct) <= 1e-10


def test_hybrid_qr_degenerate_all_classical():
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    d = canonical_decomposition(g, [CLASSICAL, CLASSICAL])
    probs = (0.7, 0.4)
    state = HybridState(StateVector(0, [1.0]), probs)
    assert hybrid_qr(d, state) == pytest.approx(float(reliability_enumerate(d.classical, list(probs))), abs=1e-15)


def test_hybrid_qr_degenerate_all_quantum():
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    d = canonical_decomposition(g, [QUANTUM, QUANTUM])
    psi = random_state(2, 42)
    value = hybrid_qr(d, HybridState(psi, ()))
    assert abs(value - qr_value(qr_operator(d.quantum), psi)) <= 1e-12


def test_hybrid_qr_disjoint_parts_gives_zero():
    g = Graph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    d = canonical_decomposition(g, [QUANTUM, CLASSICAL])
    value = hybrid_qr(d, HybridState(product_state([QubitSpec(0.9)]), (0.9,)))
    assert value == 0.0


def test_hybrid_qr_rejects_inconsistent_decomposition():
    k = Graph(("a", "b"), (("a", "b"),))
    h = Graph(("a", "c"), (("a", "c"),))
    bad = Decomposition(k, h, (), (0,), (1,))
    with pytest.raises(OverlapError):
        hybrid_qr(bad, HybridState(random_state(1, 0), (0.5,)))
    with pytest.raises(OverlapError):
        sublayer_qr(bad, HybridState(random_state(1, 0), (0.5,)))
    # A shared vertex declared, but no quantum vertices to share it.
    no_quantum = Decomposition(Graph((), ()), h, ("a",), (), (0,))
    with pytest.raises(OverlapError):
        hybrid_qr(no_quantum, HybridState(StateVector(0, [1.0]), (0.5,)))


def test_sublayer_two_parallel_edges_hand_value():
    # Classical edge a-b with probability r under a quantum edge a-b with
    # parameter p: total is 1 - (1-p)(1-r), baseline r, one correction p(1-r).
    g = Graph(("a", "b"), (("a", "b"), ("a", "b")))
    d = canonical_decomposition(g, [QUANTUM, CLASSICAL])
    p, r = 0.3, 0.6
    state = HybridState(qubit(QubitSpec(p)), (r,))
    result = sublayer_qr(d, state)
    assert result.classical == pytest.approx(r, abs=1e-15)
    assert result.total == pytest.approx(1 - (1 - p) * (1 - r), abs=1e-12)
    assert len(result.corrections) == 2
    total_corr = sum(c.value for c in result.corrections)
    assert total_corr == pytest.approx(p * (1 - r), abs=1e-12)
    for c in result.corrections:
        assert c.gamma != single_block(("a", "b"))
        assert c.weight != 0


def test_sublayer_total_matches_hybrid():
    rng = random.Random(89)
    for trial in range(20):
        h = random_graph(rng, 5, 6, min_vertices=2, min_edges=1, allow_loops=False)
        touched = sorted({v for e in h.edges for v in e})
        if len(touched) < 2:
            continue
        size = rng.randint(2, min(3, len(touched)))
        sub = rng.sample(touched, size)
        k_edges = tuple((rng.choice(sub), rng.choice(sub)) for _ in range(rng.randint(1, 2)))
        edges = h.edges + k_edges
        kinds = [CLASSICAL] * h.num_edges + [QUANTUM] * len(k_edges)
        g = Graph(h.vertices, edges)
        d = canonical_decomposition(g, kinds)
        if set(d.quantum.vertices) - set(d.classical.vertices):
            continue
        psi = random_state(d.quantum.num_edges, 5000 + trial)
        probs = random_probabilities(rng, d.classical.num_edges)
        state = HybridState(psi, tuple(probs))
        result = sublayer_qr(d, state)
        assert abs(result.total - hybrid_qr(d, state)) <= 1e-10
        # The corrections are added one by one on every Python version.
        extra = 0.0
        for c in result.corrections:
            extra += c.value
        assert result.total == result.classical + extra


def test_sublayer_inoperative_quantum_layer_changes_nothing():
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"), ("a", "b")))
    kinds = [CLASSICAL, CLASSICAL, QUANTUM, QUANTUM]
    d = canonical_decomposition(g, kinds)
    probs = (0.8, 0.55)
    dead = StateVector(2, [1.0, 0.0, 0.0, 0.0])
    result = sublayer_qr(d, HybridState(dead, probs))
    assert all(c.value == 0.0 for c in result.corrections)
    assert result.total == result.classical
    assert result.classical == pytest.approx(float(reliability_enumerate(d.classical, list(probs))), abs=1e-15)


def test_sublayer_rejects_quantum_vertex_outside_classical():
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    d = canonical_decomposition(g, [CLASSICAL, QUANTUM])
    with pytest.raises(SublayerError):
        sublayer_qr(d, HybridState(random_state(1, 1), (0.5,)))


def test_hybrid_width_validation():
    g, kinds = tagged_triangle()
    d = canonical_decomposition(g, kinds)
    with pytest.raises(WidthMismatchError):
        hybrid_qr(d, HybridState(random_state(2, 0), (0.5, 0.5)))
    with pytest.raises(WidthMismatchError):
        hybrid_qr(d, HybridState(random_state(1, 0), (0.5,)))


def test_imperfect_node_gadget_small():
    # Host: hub v joined to u1, u2, u3 by perfect edges, leaves partly
    # meshed, plus a remote vertex w.  Node v operating with probability p
    # is modeled by a quantum triangle on the splice vertices.
    p = 0.35
    host_up = Graph(
        ("v", "u1", "u2", "u3", "w"),
        (("v", "u1"), ("v", "u2"), ("v", "u3"), ("u1", "u2"), ("u2", "w"), ("w", "u3")),
    )
    host_probs = [1.0, 1.0, 1.0, 0.7, 0.6, 0.55]
    host_down = Graph(("u1", "u2", "u3", "w"), (("u1", "u2"), ("u2", "w"), ("w", "u3")))
    oracle = p * float(reliability_enumerate(host_up, host_probs)) + (1 - p) * float(
        reliability_enumerate(host_down, [0.7, 0.6, 0.55])
    )
    # Worked by hand: p*(1 - 0.4*0.45) + (1-p)*(0.7*0.6*0.55).
    assert oracle == pytest.approx(0.43715, abs=1e-12)

    gadget = Graph(
        ("v1", "v2", "v3", "u1", "u2", "u3", "w"),
        (
            ("v1", "v2"), ("v1", "v3"), ("v2", "v3"),
            ("v1", "u1"), ("v2", "u2"), ("v3", "u3"),
            ("u1", "u2"), ("u2", "w"), ("w", "u3"),
        ),
    )
    kinds = [QUANTUM] * 3 + [CLASSICAL] * 6
    d = canonical_decomposition(gadget, kinds)
    psi = two_term_state(d.quantum, 0b111, 0b000, p)
    value = hybrid_qr(d, HybridState(psi, (1.0, 1.0, 1.0, 0.7, 0.6, 0.55)))
    assert abs(value - oracle) <= 1e-10
