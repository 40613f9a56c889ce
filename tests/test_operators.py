"""Reliability projectors, component projectors, splitting, and sampling."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from qrelnet import (
    CapacityError,
    DiagonalOperator,
    Graph,
    OverlapError,
    Partition,
    QrelnetError,
    QubitSpec,
    StateVector,
    WidthMismatchError,
    born_sample,
    connectivity_matrix,
    enumerate_partitions,
    o_gamma_operator,
    product_state,
    qr_operator,
    qr_split_value,
    qr_value,
    quotient,
    random_state,
    reliability_enumerate,
    single_block,
    singletons,
    split_operator,
    tensor,
    two_term_state,
    union_graph,
    verify_split,
)
from helpers import (
    bfs_is_connected,
    bfs_trace,
    closure_merge,
    random_graph,
    random_probabilities,
    random_split,
    split_diag_fraction_loop,
)


def g1():
    return Graph(("a", "b"), (("a", "b"),))


def g2():
    return Graph(("a", "b"), (("a", "b"), ("a", "b")))


def k3():
    return Graph(("a", "b", "c"), (("a", "b"), ("a", "c"), ("b", "c")))


def test_qr_operator_small_fixtures():
    assert qr_operator(g1()).diag.tolist() == [0, 1]
    assert qr_operator(g2()).diag.tolist() == [0, 1, 1, 1]
    # Triangle: connected exactly when at least two edges survive.
    assert qr_operator(k3()).diag.tolist() == [0, 0, 0, 1, 0, 1, 1, 1]


def test_qr_operator_is_projector():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, 5, 6)
        op = qr_operator(g)
        assert op.is_projector()
        for state in range(g.num_states):
            assert op.diag[state] == (1 if bfs_is_connected(g, state) else 0)


def test_diagonal_operator_validation():
    with pytest.raises(WidthMismatchError):
        DiagonalOperator(2, (1, 0))
    op = DiagonalOperator(1, (Fraction(1, 2), 1))
    assert not op.is_projector()
    assert np.allclose(op.as_float(), [0.5, 1.0])


def test_diagonals_are_read_only_arrays():
    k = Graph(("a", "b"), (("a", "b"),))
    h = Graph(("a", "b", "c"), (("a", "c"), ("c", "b")))
    u = ("a", "b")
    cases = ((qr_operator(k3()), np.uint8), (o_gamma_operator(h, u, single_block(u)), np.uint8),
             (split_operator(k, h, u), np.int64), (DiagonalOperator(1, (Fraction(1, 2), 1)), object))
    for op, dtype in cases:
        assert op.diag.dtype == dtype
        with pytest.raises(ValueError):
            op.diag[0] = 0
    source = np.zeros(2, dtype=np.uint8)
    op = DiagonalOperator(1, source)
    source[0] = 1
    assert op.diag.tolist() == [0, 0] and source.flags.writeable


def test_qr_value_on_basis_states_is_diag_entry():
    g = k3()
    op = qr_operator(g)
    for state in range(g.num_states):
        amps = np.zeros(g.num_states, dtype=complex)
        amps[state] = 1.0
        assert qr_value(op, StateVector(g.num_edges, amps)) == float(op.diag[state])


def test_qr_value_entangled_g2_examples():
    op = qr_operator(g2())
    rng = random.Random(47)
    for _ in range(10):
        p = rng.random()
        angle = rng.uniform(0, 2 * math.pi)
        z = complex(math.cos(angle), math.sin(angle))
        psi1 = two_term_state(g2(), 0b11, 0b00, p, z)
        psi2 = two_term_state(g2(), 0b01, 0b10, p, z)
        assert abs(qr_value(op, psi1) - p) <= 1e-12
        assert abs(qr_value(op, psi2) - 1.0) <= 1e-12


def test_qr_value_phase_invariance():
    rng = random.Random(53)
    for seed in range(15):
        g = random_graph(rng, 5, 5)
        psi = random_state(g.num_edges, seed)
        angle = rng.uniform(0, 2 * math.pi)
        mu = complex(math.cos(angle), math.sin(angle))
        rotated = StateVector(psi.num_edges, mu * psi.amplitudes)
        op = qr_operator(g)
        assert abs(qr_value(op, psi) - qr_value(op, rotated)) <= 1e-12


def test_qr_value_width_mismatch():
    with pytest.raises(WidthMismatchError):
        qr_value(qr_operator(g1()), random_state(2, 0))


def test_extension_axiom_small():
    rng = random.Random(59)
    for _ in range(30):
        g = random_graph(rng, 5, 6, min_edges=1)
        probs = random_probabilities(rng, g.num_edges)
        psi = product_state([QubitSpec(p) for p in probs])
        direct = reliability_enumerate(g, probs)
        assert abs(qr_value(qr_operator(g), psi) - direct) <= 1e-10


def test_o_gamma_spec_examples():
    edgeless = Graph(("1", "2"), ())
    u = ("1", "2")
    assert o_gamma_operator(edgeless, u, singletons(u)).diag.tolist() == [1]
    assert o_gamma_operator(edgeless, u, single_block(u)).diag.tolist() == [0]
    edge = Graph(("1", "2"), (("1", "2"),))
    assert o_gamma_operator(edge, u, single_block(u)).diag.tolist() == [0, 1]
    assert o_gamma_operator(edge, u, singletons(u)).diag.tolist() == [1, 0]


def test_o_gamma_family_partitions_island_free_states():
    rng = random.Random(61)
    for _ in range(15):
        h = random_graph(rng, 5, 6, min_vertices=2)
        u = sorted(rng.sample(h.vertices, rng.randint(1, min(3, len(h.vertices)))))
        ops = [o_gamma_operator(h, u, gamma) for gamma in enumerate_partitions(u)]
        for state in range(h.num_states):
            hits = [op.diag[state] for op in ops]
            island_free = bfs_trace(h, u, state) is not None
            assert sum(hits) == (1 if island_free else 0)


def test_o_gamma_ground_set_validation():
    with pytest.raises(QrelnetError):
        o_gamma_operator(g1(), ("a", "b"), Partition((("a",),)))


def test_quotient_connectivity_matches_component_trace():
    # A state connects h/gamma exactly when it has no island and its
    # component trace coarsens with gamma to a single block.
    rng = random.Random(67)
    for _ in range(25):
        h = random_graph(rng, 5, 6, min_vertices=2)
        u = sorted(rng.sample(h.vertices, rng.randint(1, min(3, len(h.vertices)))))
        for gamma in enumerate_partitions(u):
            hq = quotient(h, u, gamma)
            for state in range(h.num_states):
                trace = bfs_trace(h, u, state)
                expected = trace is not None and len(closure_merge(trace, gamma).blocks) == 1
                assert bfs_is_connected(hq, state) == expected


def test_union_graph_order_and_validation():
    k = Graph(("s", "x"), (("s", "x"),))
    h = Graph(("s", "y"), (("s", "y"), ("y", "y")))
    u = union_graph(k, h, ["s"])
    assert u.edges == (("s", "y"), ("y", "y"), ("s", "x"))
    assert u.vertices == ("s", "y", "x")
    with pytest.raises(OverlapError):
        union_graph(k, h, ["s", "x"])
    with pytest.raises(OverlapError):
        union_graph(k, Graph(("s", "x"), ()), ["s"])


def test_split_operator_single_shared_edge_fixture():
    k = Graph(("a", "b"), (("a", "b"),))
    h = Graph(("a", "b"), (("a", "b"),))
    op = split_operator(k, h, ["a", "b"])
    assert op.diag.tolist() == [0, 1, 1, 1]
    assert verify_split(k, h, ["a", "b"])


def test_split_operator_k3_fixture():
    k = Graph(("a", "b"), (("a", "b"),))
    h = Graph(("a", "b", "c"), (("a", "c"), ("c", "b")))
    assert verify_split(k, h, ["a", "b"])
    direct = qr_operator(union_graph(k, h, ["a", "b"]))
    assert split_operator(k, h, ["a", "b"]).diag.tolist() == direct.diag.tolist()


def test_split_operator_random_instances_exact():
    rng = random.Random(71)
    for _ in range(25):
        k, h, shared = random_split(rng, rng.randint(1, 3), 2, 7)
        assert verify_split(k, h, shared)


def test_split_operator_matches_rational_loop_oracle():
    rng = random.Random(83)
    for num_shared in (1, 2, 3, 4):
        for _ in range(6):
            k, h, shared = random_split(rng, num_shared, 2, 8)
            assert split_operator(k, h, shared).diag.tolist() == split_diag_fraction_loop(k, h, shared)


def test_split_operator_values_are_zero_one():
    rng = random.Random(73)
    for _ in range(10):
        k, h, shared = random_split(rng, 2, 2, 6)
        assert split_operator(k, h, shared).is_projector()


def test_qr_split_value_matches_direct_tensor_path():
    rng = random.Random(79)
    for seed in range(15):
        k, h, shared = random_split(rng, rng.randint(1, 3), 2, 7)
        psi_k = random_state(k.num_edges, 1000 + seed)
        psi_h = random_state(h.num_edges, 2000 + seed)
        via_split = qr_split_value(k, h, shared, psi_k, psi_h)
        direct = qr_value(qr_operator(union_graph(k, h, shared)), tensor(psi_k, psi_h))
        assert abs(via_split - direct) <= 1e-10


def test_split_requires_shared_vertices():
    k = Graph(("x",), ())
    h = Graph(("y",), ())
    with pytest.raises(QrelnetError):
        split_operator(k, h, [])


def test_born_sample_determinism_and_coverage():
    g = g2()
    psi = two_term_state(g, 0b11, 0b00, 0.3)
    a = born_sample(g, psi, 50_000, seed=7)
    b = born_sample(g, psi, 50_000, seed=7)
    c = born_sample(g, psi, 50_000, seed=8)
    assert a == b
    assert a != c
    assert abs(a.estimate - 0.3) <= 4 * a.stderr + 1e-9
    assert a.stderr == math.sqrt(a.estimate * (1 - a.estimate) / 50_000)


def test_born_sample_validation():
    g = g1()
    with pytest.raises(QrelnetError):
        born_sample(g, product_state([QubitSpec(0.5)]), 0, seed=1)
    with pytest.raises(WidthMismatchError):
        born_sample(g, random_state(2, 0), 10, seed=1)
    with pytest.raises(CapacityError):
        born_sample(g, product_state([QubitSpec(0.5)]), np.iinfo(np.intp).max + 1, seed=1)


def test_born_sample_basis_state_is_exact():
    g = g1()
    up = product_state([QubitSpec(1.0)])
    est = born_sample(g, up, 1000, seed=3)
    assert est.estimate == 1.0 and est.stderr == 0.0
