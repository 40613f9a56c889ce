"""Differential checks of the frontier-partition engine against BFS oracles.

Every all-states connectivity user (``qr_operator``, ``o_gamma_operator``,
``reliability_enumerate``) runs on the engine; the per-state breadth-first
searches in ``helpers`` are the slow route it replaced.  The one compile,
``frontier_lists``, is checked table for table against the per-state dict
walk of ``helpers``, and the breadth-first edge order that both trace forms
compile is checked against the given order, trace for trace.  The list and
the array form number the final states alike, whatever the file order.
Each splitting entry point compiles each side of its cut exactly once.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

import qrelnet.graphs
from qrelnet import (
    MAX_EDGES,
    Decomposition,
    Graph,
    HybridState,
    Partition,
    enumerate_partitions,
    hybrid_qr,
    o_gamma_operator,
    qr_operator,
    qr_split_value,
    reliability_enumerate,
    reliability_factorize,
    split_operator,
    sublayer_qr,
)
from qrelnet.graphs import _breadth_first_order, component_traces, frontier_lists, trace_lists, traces

from helpers import (
    bfs_is_connected,
    bfs_trace,
    edge_case_graphs,
    enumerate_oracle,
    frontier_tables_oracle,
    given_order_traces,
    horizontal_first_grid,
    random_graph,
    random_state,
    scrambled_k6,
)


def test_qr_operator_matches_bfs():
    for g in [*edge_case_graphs(21, 150, 6, 8), scrambled_k6()]:
        expected = [1 if bfs_is_connected(g, s) else 0 for s in range(g.num_states)]
        assert qr_operator(g).tolist() == expected


def test_component_traces_and_o_gamma_match_bfs():
    rng = random.Random(22)
    for g in [*edge_case_graphs(23, 120, 6, 7), scrambled_k6()]:
        u = [v for v in g.vertices if rng.random() < 0.5] or list(g.vertices[:1])
        traces = [bfs_trace(g, u, s) for s in range(g.num_states)]
        ids, finals = component_traces(g, u)
        assert [finals[i] for i in ids.tolist()] == traces
        gammas = enumerate_partitions(u) if u else [Partition(())]
        for gamma in gammas:
            expected = [1 if t == gamma else 0 for t in traces]
            assert o_gamma_operator(g, u, gamma).tolist() == expected


def test_float_enumeration_is_bit_identical_to_bfs_route():
    rng = random.Random(24)
    for g in [*edge_case_graphs(25, 120, 6, 9), scrambled_k6()]:
        probs = [rng.random() for _ in range(g.num_edges)]
        assert reliability_enumerate(g, probs) == enumerate_oracle(g, probs)


def test_exact_enumeration_equals_factorization():
    rng = random.Random(26)
    for g in edge_case_graphs(27, 80, 5, 7):
        probs = [Fraction(rng.randint(0, 8), 8) for _ in range(g.num_edges)]
        assert reliability_enumerate(g, probs) == reliability_factorize(g, probs)


def _wide() -> Graph:
    """Twenty-six vertices, all kept live by a full kept set: the widest frontier here."""
    return Graph(tuple(f"w{i:02d}" for i in range(26)),
                 (("w00", "w25"), ("w03", "w21"), ("w21", "w25"), ("w10", "w10"), ("w24", "w00")))


def _compile_cases(seed: int):
    """Graphs with their kept sets: one vertex, a random half, all vertices and none."""
    rng = random.Random(seed)
    graphs = [*edge_case_graphs(seed + 1, 150, 6, 9), scrambled_k6(), horizontal_first_grid(3, 4),
              horizontal_first_grid(2, 6), _wide()]
    for g in graphs:
        for u in (g.vertices[:1], [v for v in g.vertices if rng.random() < 0.5], g.vertices, ()):
            yield g, u


def test_frontier_tables_equal_the_per_state_compile():
    for g, u in _compile_cases(28):
        expected_start, expected_tables, expected_finals = frontier_tables_oracle(g, u)
        assert frontier_lists(g, u) == (expected_start, [tuple(t.tolist()) for t in expected_tables],
                                        expected_finals)


def test_component_traces_equal_the_given_order_compile():
    # Both forms compile a breadth-first edge order and number the final
    # states alike; the given order may number them otherwise, never trace
    # a state otherwise.
    for g, u in _compile_cases(30):
        order = _breadth_first_order(g)
        assert sorted(order) == list(range(g.num_edges))
        ids, finals = component_traces(g, u)
        assert ids.dtype == np.int32
        assert trace_lists(g, u) == (ids.tolist(), finals)
        expected_ids, expected_finals = given_order_traces(g, u)
        assert [finals[i] for i in ids.tolist()] == [expected_finals[i] for i in expected_ids]


@pytest.mark.parametrize("num_edges", [15, 16, 17])
def test_traces_give_the_same_traces_in_both_forms(num_edges, monkeypatch):
    # graphs.traces picks lists or arrays by one gate; forced each way, it
    # gives the same number, and so the same trace, to every state.
    rng = random.Random(num_edges)
    g = random_graph(rng, 8, num_edges, min_vertices=8, min_edges=num_edges)
    u = rng.sample(g.vertices, 3)
    assert isinstance(traces(g, u)[0], list) == (num_edges <= qrelnet.graphs.LIST_EDGES)
    seen = []
    for list_edges in (MAX_EDGES, -1):
        monkeypatch.setattr(qrelnet.graphs, "LIST_EDGES", list_edges)
        ids, finals = traces(g, u)
        assert isinstance(ids, list) == (list_edges == MAX_EDGES)
        seen.append((ids if isinstance(ids, list) else ids.tolist(), finals))
    assert seen[0] == seen[1]
    assert len(set(seen[0][0])) > 2


def _stray_multigraph(rng, num_edges: int) -> Graph:
    """Random multigraph of ``num_edges`` edges with a loop, a parallel edge and, at odd counts, a stray vertex.

    The stray has no edge: isolated if kept, stranding every state if not.
    """
    vertices = [f"v{i}" for i in range(rng.randint(1, 7))]
    edges = [tuple(rng.choices(vertices, k=2)) for _ in range(num_edges)]
    if num_edges >= 2:
        edges[rng.randrange(num_edges)] = (vertices[0], vertices[0])
        edges[rng.randrange(num_edges)] = rng.choice(edges)
    return Graph(tuple(vertices) + ("stray",) * (num_edges % 2), tuple(edges))


def _kept_sets(rng, g: Graph):
    """No vertex, the first, a random subset and every vertex."""
    return (), g.vertices[:1], [v for v in g.vertices if rng.random() < 0.5], g.vertices


def test_trace_lists_is_component_traces_as_lists():
    rng = random.Random(32)
    for num_edges in range(18):
        for _ in range(3):
            g = _stray_multigraph(rng, num_edges)
            for u in _kept_sets(rng, g):
                ids, finals = component_traces(g, u)
                assert trace_lists(g, u) == (ids.tolist(), finals)


def _doublings(order: list[int]) -> set[str]:
    """Which way ``trace_lists`` places each edge of ``order``: whole blocks, or strided slices."""
    kinds = set()
    for j, k in enumerate(order):
        block = 1 << sum(i < k for i in order[:j])
        kinds.add("blocks" if block * block >= 1 << j else "strided")
    return kinds


def test_trace_lists_is_component_traces_as_lists_in_any_file_order():
    # Shuffled, reversed and reversed breadth-first file orders put each
    # edge's table on a bit below, between and above the edges placed so far.
    rng = random.Random(34)
    kinds = set()
    for g in [horizontal_first_grid(3, 4), horizontal_first_grid(2, 6), scrambled_k6(),
              *(_stray_multigraph(rng, n) for n in (9, 12, 16, 17))]:
        shuffled = rng.sample(g.edges, len(g.edges))
        breadth_first = [g.edges[k] for k in _breadth_first_order(g)]
        for edges in (shuffled, g.edges[::-1], breadth_first[::-1]):
            h = Graph(g.vertices, tuple(edges))
            kinds |= _doublings(_breadth_first_order(h))
            for u in _kept_sets(rng, h):
                ids, finals = component_traces(h, u)
                assert trace_lists(h, u) == (ids.tolist(), finals)
    assert kinds == {"blocks", "strided"}


def test_the_breadth_first_order_narrows_a_horizontal_first_grid():
    # Breadth first from a corner, the live vertices stay one diagonal of the grid.
    g = horizontal_first_grid(3, 4)
    given = frontier_lists(g, g.vertices[:1])[1]
    ordered = frontier_lists(Graph(g.vertices, [g.edges[k] for k in _breadth_first_order(g)]), g.vertices[:1])[1]
    assert [sum(len(t0) - 1 for t0, _ in tables) for tables in (given, ordered)] == [3948, 255]


def test_every_split_runs_one_frontier_pass_per_side(monkeypatch):
    calls = []
    real = qrelnet.graphs.frontier_lists

    def counted(g, u):
        calls.append(sorted(g.edges))
        return real(g, u)

    monkeypatch.setattr(qrelnet.graphs, "frontier_lists", counted)
    # A sublayer cut: the quantum side lives on exactly the shared vertices.
    k = Graph(("a", "b"), (("a", "b"), ("b", "a")))
    h = Graph(("a", "b", "c"), (("a", "c"), ("c", "b"), ("a", "b")))
    shared = ("a", "b")
    psi_k, psi_h = random_state(2, 1), random_state(3, 2)
    decomp = Decomposition(k, h, shared)
    state = HybridState(psi_k, (0.3, 0.6, 0.9))
    runs = {
        "split_operator": lambda: split_operator(k, h, shared),
        "qr_split_value": lambda: qr_split_value(k, h, shared, psi_k, psi_h),
        "hybrid_qr": lambda: hybrid_qr(decomp, state),
        "sublayer_qr": lambda: sublayer_qr(decomp, state),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        # The breadth-first compile of traces runs each side in its own edge order.
        assert calls == [sorted(k.edges), sorted(h.edges)], name
