"""Differential checks of the frontier-partition engine against BFS oracles.

Every all-states connectivity user (``qr_operator``, ``o_gamma_operator``,
``reliability_enumerate``) runs on the engine; the per-state breadth-first
searches in ``helpers`` are the slow route it replaced.  The compile itself
is checked table for table against the per-state dict walk it replaced.
Each splitting entry point compiles each side of its cut exactly once.
"""

import random
from fractions import Fraction

import numpy as np

import qrelnet.graphs
from qrelnet import (
    Decomposition,
    Graph,
    HybridState,
    Partition,
    enumerate_partitions,
    hybrid_qr,
    o_gamma_operator,
    qr_operator,
    qr_split_value,
    random_state,
    reliability_enumerate,
    reliability_factorize,
    split_operator,
    sublayer_qr,
)
from qrelnet.graphs import component_traces, frontier_tables

from helpers import (
    bfs_is_connected,
    bfs_trace,
    edge_case_graphs,
    enumerate_oracle,
    frontier_tables_oracle,
    horizontal_first_grid,
    scrambled_k6,
)


def test_qr_operator_matches_bfs():
    for g in [*edge_case_graphs(21, 150, 6, 8), scrambled_k6()]:
        expected = [1 if bfs_is_connected(g, s) else 0 for s in range(g.num_states)]
        assert qr_operator(g).diag.tolist() == expected


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
            assert o_gamma_operator(g, u, gamma).diag.tolist() == expected


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


def test_frontier_tables_equal_the_per_state_compile():
    rng = random.Random(28)
    # Twenty-six vertices kept live: the row numbers span two int64 chunks.
    wide = Graph(tuple(f"w{i:02d}" for i in range(26)),
                 (("w00", "w25"), ("w03", "w21"), ("w21", "w25"), ("w10", "w10"), ("w24", "w00")))
    graphs = [*edge_case_graphs(29, 150, 6, 9), scrambled_k6(), horizontal_first_grid(3, 4),
              horizontal_first_grid(2, 6), wide]
    for g in graphs:
        subsets = (g.vertices[:1], [v for v in g.vertices if rng.random() < 0.5], g.vertices, ())
        for u in subsets:
            start, tables, finals = frontier_tables(g, u)
            expected_start, expected_tables, expected_finals = frontier_tables_oracle(g, u)
            assert (start, finals) == (expected_start, expected_finals)
            assert len(tables) == len(expected_tables)
            for table, expected in zip(tables, expected_tables):
                assert table.dtype == expected.dtype
                assert np.array_equal(table, expected)


def test_every_split_runs_one_frontier_pass_per_side(monkeypatch):
    calls = []

    def counted(g, u):
        calls.append(g)
        return frontier_tables(g, u)

    monkeypatch.setattr(qrelnet.graphs, "frontier_tables", counted)
    # A sublayer cut: the quantum side lives on exactly the shared vertices.
    k = Graph(("a", "b"), (("a", "b"), ("b", "a")))
    h = Graph(("a", "b", "c"), (("a", "c"), ("c", "b"), ("a", "b")))
    shared = ("a", "b")
    psi_k, psi_h = random_state(2, 1), random_state(3, 2)
    decomp = Decomposition(k, h, shared, (), ())
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
        assert calls == [k, h], name
