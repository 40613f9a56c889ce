"""Differential checks of the frontier-partition engine against BFS oracles.

Every all-states connectivity user (``qr_operator``, ``o_gamma_operator``,
``reliability_enumerate``) runs on the engine; the per-state breadth-first
searches in ``helpers`` are the slow route it replaced.
"""

import random
from fractions import Fraction

from qrelnet import (
    Partition,
    enumerate_partitions,
    o_gamma_operator,
    qr_operator,
    reliability_enumerate,
    reliability_factorize,
)
from qrelnet.graphs import component_traces

from helpers import (
    bfs_is_connected,
    bfs_trace,
    edge_case_graphs,
    enumerate_oracle,
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
