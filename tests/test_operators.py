"""Reliability projectors, component projectors, splitting, and sampling."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import qrelnet.operators
from qrelnet import (
    CapacityError,
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
    reliability_enumerate,
    single_block,
    singletons,
    split_operator,
    tensor,
    two_term_state,
    union_graph,
    verify_split,
)
from qrelnet.graphs import component_traces
from qrelnet.operators import _quotient_rows, _split_weights, split_sides
from qrelnet.partitions import ConnectivityMatrix, contract
from helpers import (
    bfs_is_connected,
    bfs_trace,
    closure_merge,
    given_order_traces,
    int64_contraction,
    random_graph,
    random_probabilities,
    random_split,
    random_state,
    rejection,
    split_diag_fraction_loop,
    split_lists,
    split_table,
    sum_in_order,
)


def g1():
    return Graph(("a", "b"), (("a", "b"),))


def g2():
    return Graph(("a", "b"), (("a", "b"), ("a", "b")))


def k3():
    return Graph(("a", "b", "c"), (("a", "b"), ("a", "c"), ("b", "c")))


def test_qr_operator_small_fixtures():
    assert qr_operator(g1()).tolist() == [0, 1]
    assert qr_operator(g2()).tolist() == [0, 1, 1, 1]
    # Triangle: connected exactly when at least two edges survive.
    assert qr_operator(k3()).tolist() == [0, 0, 0, 1, 0, 1, 1, 1]


def test_qr_operator_is_projector():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, 5, 6)
        op = qr_operator(g)
        assert np.isin(op, (0, 1)).all()
        for state in range(g.num_states):
            assert op[state] == (1 if bfs_is_connected(g, state) else 0)


def test_diagonals_are_read_only_arrays():
    k = Graph(("a", "b"), (("a", "b"),))
    h = Graph(("a", "b", "c"), (("a", "c"), ("c", "b")))
    u = ("a", "b")
    cases = ((qr_operator(k3()), np.uint8), (o_gamma_operator(h, u, single_block(u)), np.uint8),
             (split_operator(k, h, u), np.int64))
    for op, dtype in cases:
        assert isinstance(op, np.ndarray) and op.ndim == 1 and op.dtype == dtype
        with pytest.raises(ValueError):
            op[0] = 0


def test_qr_value_on_basis_states_is_diag_entry():
    g = k3()
    op = qr_operator(g)
    for state in range(g.num_states):
        amps = np.zeros(g.num_states, dtype=complex)
        amps[state] = 1.0
        assert qr_value(op, StateVector(g.num_edges, amps)) == float(op[state])


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


def test_qr_value_is_the_per_state_loop_bit_for_bit():
    # The oracle adds diag[s] * |psi[s]|^2 one state at a time, in ascending order.
    rng = random.Random(59)
    for n in (0, 1, 2, 5, 9, 13, 15, 16, 17):
        psi = random_state(n, n)
        probs = psi.probabilities().tolist()
        diag = [rng.randint(0, 1) for _ in range(1 << n)]
        op = np.array(diag, dtype=np.uint8)
        assert qr_value(op, psi) == sum_in_order(d * p for d, p in zip(diag, probs))
    for n in (1, 4, 10):
        psi = random_state(n, 100 + n)
        probs = psi.probabilities().tolist()
        diag = [Fraction(rng.randint(-7, 7), rng.randint(1, 9)) for _ in range(1 << n)]
        op = np.array(diag, dtype=object)
        assert qr_value(op, psi) == sum_in_order(float(d) * p for d, p in zip(diag, probs))


def test_qr_value_width_mismatch():
    psi = random_state(2, 0)
    for op in (qr_operator(g1()), np.ones(3), np.ones((2, 2)), np.ones((4, 1)), 1.0):
        with pytest.raises(WidthMismatchError):
            qr_value(op, psi)


def test_qr_value_takes_fraction_arrays_and_lists():
    psi = StateVector(2, np.full(4, 0.5))  # weight 1/4 on every state
    diag = [Fraction(7), Fraction(1, 2), Fraction(-1, 3), Fraction(5)]
    expected = ((7 * 0.25 + 0.5 * 0.25) + (-1 / 3) * 0.25) + 5 * 0.25
    assert qr_value(np.array(diag, dtype=object), psi) == expected
    assert qr_value(diag, psi) == expected
    assert qr_value([0, 1, 1, 1], psi) == qr_value(qr_operator(g2()), psi) == 0.75


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
    assert o_gamma_operator(edgeless, u, singletons(u)).tolist() == [1]
    assert o_gamma_operator(edgeless, u, single_block(u)).tolist() == [0]
    edge = Graph(("1", "2"), (("1", "2"),))
    assert o_gamma_operator(edge, u, single_block(u)).tolist() == [0, 1]
    assert o_gamma_operator(edge, u, singletons(u)).tolist() == [1, 0]


def test_o_gamma_family_partitions_island_free_states():
    rng = random.Random(61)
    for _ in range(15):
        h = random_graph(rng, 5, 6, min_vertices=2)
        u = sorted(rng.sample(h.vertices, rng.randint(1, min(3, len(h.vertices)))))
        ops = [o_gamma_operator(h, u, gamma) for gamma in enumerate_partitions(u)]
        for state in range(h.num_states):
            hits = [op[state] for op in ops]
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
    assert op.tolist() == [0, 1, 1, 1]
    assert verify_split(k, h, ["a", "b"])


def test_split_operator_k3_fixture():
    k = Graph(("a", "b"), (("a", "b"),))
    h = Graph(("a", "b", "c"), (("a", "c"), ("c", "b")))
    assert verify_split(k, h, ["a", "b"])
    direct = qr_operator(union_graph(k, h, ["a", "b"]))
    assert split_operator(k, h, ["a", "b"]).tolist() == direct.tolist()


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
            assert split_operator(k, h, shared).tolist() == split_diag_fraction_loop(k, h, shared)


def test_split_operator_values_are_zero_one():
    rng = random.Random(73)
    for _ in range(10):
        k, h, shared = random_split(rng, 2, 2, 6)
        assert np.isin(split_operator(k, h, shared), (0, 1)).all()


def test_qr_split_value_matches_direct_tensor_path():
    rng = random.Random(79)
    for seed in range(15):
        k, h, shared = random_split(rng, rng.randint(1, 3), 2, 7)
        psi_k = random_state(k.num_edges, 1000 + seed)
        psi_h = random_state(h.num_edges, 2000 + seed)
        via_split = qr_split_value(k, h, shared, psi_k, psi_h)
        direct = qr_value(qr_operator(union_graph(k, h, shared)), tensor(psi_k, psi_h))
        assert abs(via_split - direct) <= 1e-10


@pytest.mark.parametrize("num_edges", [16, 17])
def test_list_split_values_equal_the_array_split(num_edges):
    # The list oracle expands both operators over all 2^|E| states.
    rng = random.Random(400 + num_edges)
    cuts = [random_split(rng, num_shared, 3, num_edges, min_total_edges=num_edges)
            for num_shared in (1, 2, 3, 4) for _ in range(3)]
    edges = [e for k, h, _ in cuts for e in k.edges + h.edges]
    assert any(a == b for a, b in edges)  # loops
    assert any(len(set(k.edges)) < k.num_edges for k, _, _ in cuts)  # parallel edges
    for k, h, shared in cuts:
        union, cm = _split_weights(k, h, shared)
        assert union.num_edges == num_edges
        assembled, direct = split_lists(cm, k, h, shared, union)
        den = cm.denominator
        assert assembled == [den * x for x in split_operator(k, h, shared).tolist()]
        assert direct == [den * x for x in qr_operator(union).tolist()]
        assert verify_split(k, h, shared)


def test_int64_contraction_equals_the_int_contraction():
    # On seven shared vertices, 877 weight rows: the packed-int contraction
    # against int64 products, and the assembled operator against the direct one.
    ring = tuple("abcdefg")
    k = Graph(ring, tuple(zip(ring, ring[1:] + ring[:1])))
    h = Graph(ring + ("z",), tuple((v, "z") for v in ring))
    cm = connectivity_matrix(ring)
    k_finals, h_finals = (component_traces(g, ring)[1] for g in (k, h))
    expected = int64_contraction(cm, _quotient_rows(cm, k_finals), _quotient_rows(cm, h_finals))
    assert split_table(cm, k_finals, h_finals) == expected
    assert split_operator(k, h, ring).tolist() == qr_operator(union_graph(k, h, ring)).tolist()
    assert verify_split(k, h, ring)


def _cut(num_edges):
    """A cut on a and b: k is parallel a-b links, h paths through c and d."""
    k = Graph(("a", "b"), (("a", "b"),) * (num_edges // 2))
    h_edges = (("a", "c"), ("c", "b"), ("b", "d"), ("d", "a"), ("c", "d"), ("a", "b"))
    h = Graph(("a", "b", "c", "d"), (h_edges * 3)[: num_edges - num_edges // 2])
    return k, h, ("a", "b")


@pytest.mark.parametrize("num_edges", [16, 17])
def test_verify_split_catches_a_wrong_weight(monkeypatch, num_edges):
    # The splitting always holds, so only broken weights show that
    # verify_split can answer False.  Every island-free state of either side
    # connects the quotient by the single block, so a changed weight between
    # the single blocks changes every such entry.
    real = qrelnet.operators.connectivity_matrix

    def broken(shared):
        cm = real(shared)
        scaled = [list(row) for row in cm.scaled]
        scaled[0][0] += 1  # order[0] is the single block
        return ConnectivityMatrix(cm.order, cm.alpha, tuple(map(tuple, scaled)), cm.denominator)

    k, h, shared = _cut(num_edges)
    assert verify_split(k, h, shared)
    monkeypatch.setattr(qrelnet.operators, "connectivity_matrix", broken)
    assert verify_split(k, h, shared) is False


def _edgeless(names) -> Graph:
    return Graph(tuple(names), ())


def _differential_cuts():
    """Seeded cuts on 1-7 shared vertices and 2-24 union edges, with the corner cases named."""
    rng = random.Random(97)
    cuts = [random_split(rng, 1 + i % 6, 2, 20, min_side_edges=0) for i in range(18)]
    cuts.append(random_split(rng, 7, 1, 14))  # 877 partitions, the largest shared set
    cuts.append(random_split(rng, 2, 2, 24, min_total_edges=24))
    k, h, shared = random_split(rng, 3, 0, 10, min_total_edges=6)
    cuts += [
        (_edgeless(shared), h, shared),  # k has no edge
        (k, _edgeless(shared), shared),  # h has no edge
        (Graph(k.vertices + ("x",), k.edges), h, shared),  # a vertex of k with no edge
        (k, Graph(h.vertices + ("y",), h.edges), shared),  # a vertex of h with no edge
        # a shared vertex with no edge
        (Graph(k.vertices + ("s3",), k.edges), Graph(h.vertices + ("s3",), h.edges), shared + ["s3"]),
    ]
    return cuts


@pytest.mark.parametrize("broken", [False, True])
def test_verify_split_is_the_array_equality(monkeypatch, broken):
    # verify_split walks reachable product states; the assembled array
    # against the direct one is the same check over every edge state.  With
    # one weight changed, the array and verify_split see the same wrong
    # weights, and both routes must still agree.  split_operator divides by
    # the denominator exactly only where the weights are right, so the array
    # is gathered here from the sides' contraction, each entry coded 1 where
    # it is the denominator, 0 where it is 0 and 2 elsewhere.
    cuts = _differential_cuts()
    edges = [e for k, h, _ in cuts for e in k.edges + h.edges]
    assert any(a == b for a, b in edges)  # loops
    assert any(len(set(g.edges)) < g.num_edges for k, h, _ in cuts for g in (k, h))  # parallel edges
    assert {len(shared) for _, _, shared in cuts} == set(range(1, 8))
    assert max(k.num_edges + h.num_edges for k, h, _ in cuts) == 24
    assert min(k.num_edges + h.num_edges for k, h, _ in cuts) <= 2
    rng = random.Random(98)
    real = qrelnet.operators.connectivity_matrix
    outcomes = []
    for k, h, shared in cuts:
        if broken:
            cm = real(shared)
            scaled = [list(row) for row in cm.scaled]
            scaled[rng.randrange(len(scaled))][rng.randrange(len(scaled))] += 1
            wrong = ConnectivityMatrix(cm.order, cm.alpha, tuple(map(tuple, scaled)), cm.denominator)
            monkeypatch.setattr(qrelnet.operators, "connectivity_matrix", lambda _, wrong=wrong: wrong)
        cm, (k_rows, k_ids), (h_rows, h_ids) = split_sides(k, h, shared)
        table = np.array(contract(cm, k_rows, h_rows))
        code = np.select([table == cm.denominator, table == 0], [1, 0], 2).astype(np.uint8)
        direct = qr_operator(union_graph(k, h, shared))
        expected = np.array_equal(code[np.array(k_ids)[:, None], np.array(h_ids)].reshape(-1), direct)
        if not broken:
            assert np.array_equal(split_operator(k, h, shared), direct)
        assert verify_split(k, h, shared) is expected, (k, h, shared)
        outcomes.append(expected)
    if broken:
        assert 0 < outcomes.count(False) < len(outcomes)
    else:
        assert all(outcomes)


@pytest.mark.parametrize("num_shared, num_edges", [(2, 9), (3, 20), (4, 17)])
def test_verify_split_catches_one_wrong_entry_that_few_states_reach(monkeypatch, num_shared, num_edges):
    # Change the contraction at the one reachable pair of final states
    # (a, b) that the fewest edge states reach: the product walk must still
    # land on it.  A whole denominator keeps split_operator's entries integers.
    # The final states are numbered as verify_split numbers them: by the
    # compile in the given edge order, not the breadth-first one of the
    # trace passes.  Both contractions of the weights call
    # partitions.contract, so the wrong entry reaches split_operator too,
    # and both compiles number the same reachable traces, 1 to n after the
    # dead state 0, so (a, b) is a reachable pair in its breadth-first
    # numbering as well.
    k, h, shared = random_split(random.Random(300 + num_edges), num_shared, 2, num_edges,
                                min_total_edges=num_edges)
    k_ids, h_ids = (given_order_traces(g, shared)[0] for g in (k, h))
    hits = np.outer(np.bincount(k_ids), np.bincount(h_ids))
    a, b = min(zip(*np.nonzero(hits)), key=lambda ab: hits[ab])
    assert 16 * hits[a, b] <= hits.sum()
    real = qrelnet.operators.contract

    def one_wrong(cm, k_rows, h_rows):
        table = real(cm, k_rows, h_rows)
        table[a][b] += cm.denominator
        return table

    assert verify_split(k, h, shared)
    monkeypatch.setattr(qrelnet.operators, "contract", one_wrong)
    assert verify_split(k, h, shared) is False
    assert not np.array_equal(split_operator(k, h, shared), qr_operator(union_graph(k, h, shared)))


def test_split_operator_peaks_near_its_result():
    # The small table of final-state pairs is divided before the gather, so
    # the one array of 2^|E| entries built is the int64 result itself.
    for seed in (310, 312):
        k, h, shared = random_split(random.Random(seed), 2, 2, 20, min_total_edges=20)
        tracemalloc.start()
        try:
            op = split_operator(k, h, shared)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.shape == (1 << 20,) and op.dtype == np.int64
        assert peak < 2 * op.nbytes


def _bad_cuts(num_edges):
    """Cuts of ``num_edges`` edges that no splitting accepts, with their error codes."""
    k, h, _ = _cut(num_edges)
    far = Graph(("x", "y"), (("x", "y"),) * h.num_edges)
    eight = tuple("abcdefgh")
    ring = Graph(eight, tuple(zip(eight, eight[1:] + eight[:1])))
    chords = Graph(eight, tuple((eight[i % 8], eight[(i + 3) % 8]) for i in range(num_edges - 8)))
    return [(k, h, ("a",), "overlap_violation"), (k, far, (), "invalid_partition"),
            (ring, chords, eight, "capacity")]


@pytest.mark.parametrize("num_edges", [16, 17])
def test_both_verify_routes_reject_a_bad_cut_alike(num_edges):
    for k, h, shared, expected in _bad_cuts(num_edges):
        assert k.num_edges + h.num_edges == num_edges
        for fn in (verify_split, split_operator):
            with pytest.raises(QrelnetError) as err:
                fn(k, h, shared)
            assert err.value.code == expected


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


def test_born_draws_past_the_cumulative_table_skip_zero_weight_states(monkeypatch):
    # Weights summing to 1 - 5e-11 pass the norm check; a draw past their
    # sum must not land on the all-up state, whose amplitude is zero.
    class LastDraw:
        def random(self, n):
            return np.full(n, 1 - 1e-12)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: LastDraw())
    psi = StateVector(1, np.array([math.sqrt(1 - 5e-11), 0]))
    assert qr_value(qr_operator(g1()), psi) == 0.0
    assert born_sample(g1(), psi, 10, seed=0).estimate == 0.0


@pytest.mark.parametrize("fn, args, expected", [
    (qr_value, (np.zeros(3), random_state(1, 0)), "width_mismatch"),
    (qr_split_value, (g1(), g1(), ["a"], random_state(2, 0), random_state(1, 0)), "width_mismatch"),
], ids=lambda x: getattr(x, "__name__", None))
def test_operator_guards(fn, args, expected):
    code, peak = rejection(fn, *args)
    assert code == expected and peak < 1 << 20
