"""Differential checks of the frontier-partition engine against BFS oracles.

Every all-states connectivity user (``qr_operator``, ``o_gamma_operator``,
``reliability_enumerate``) runs on the engine; the per-state breadth-first
searches in ``helpers`` are the slow route it replaced.
"""

import itertools
import random
from fractions import Fraction

from qrelnet import (
    Graph,
    Partition,
    enumerate_partitions,
    o_gamma_operator,
    qr_operator,
    reliability_enumerate,
    reliability_factorize,
)
from qrelnet.graphs import component_traces

from helpers import bfs_components, bfs_is_connected, random_graph


def _scrambled_k6():
    # Edge order that keeps all six vertices live almost to the end.
    rng = random.Random(5)
    edges = list(itertools.combinations("abcdef", 2))
    rng.shuffle(edges)
    return Graph(tuple("abcdef"), tuple(edges))


def _graphs(seed: int, count: int, max_vertices: int, max_edges: int):
    """Small edge cases first, then random multigraphs with loops and strays."""
    yield Graph((), ())
    yield Graph(("a",), ())
    yield Graph(("a",), (("a", "a"), ("a", "a")))
    yield Graph(("a", "b"), ())
    yield Graph(("a", "b", "c"), (("a", "b"), ("a", "b"), ("b", "b")))
    rng = random.Random(seed)
    for _ in range(count):
        yield random_graph(rng, max_vertices, max_edges)


def _bfs_trace(g: Graph, u, state: int):
    uset = set(u)
    comps = bfs_components(g, state)
    if any(not (c & uset) for c in comps):
        return None
    return Partition(tuple(tuple(c & uset) for c in comps))


def test_qr_operator_matches_bfs():
    for g in [*_graphs(21, 150, 6, 8), _scrambled_k6()]:
        expected = tuple(1 if bfs_is_connected(g, s) else 0 for s in range(g.num_states))
        assert qr_operator(g).diag == expected


def test_component_traces_and_o_gamma_match_bfs():
    rng = random.Random(22)
    for g in [*_graphs(23, 120, 6, 7), _scrambled_k6()]:
        u = [v for v in g.vertices if rng.random() < 0.5] or list(g.vertices[:1])
        traces = [_bfs_trace(g, u, s) for s in range(g.num_states)]
        ids, finals = component_traces(g, u)
        assert [finals[i] for i in ids.tolist()] == traces
        gammas = enumerate_partitions(u) if u else [Partition(())]
        for gamma in gammas:
            expected = tuple(1 if t == gamma else 0 for t in traces)
            assert o_gamma_operator(g, u, gamma).diag == expected


def _enumerate_by_bfs(g: Graph, probs):
    # The enumeration the engine replaced: ascending states, same product.
    comp = [1 - x for x in probs]
    total = 0.0
    for state in range(g.num_states):
        if not bfs_is_connected(g, state):
            continue
        w = 1.0
        for i in range(g.num_edges):
            w *= probs[i] if state >> i & 1 else comp[i]
        total += w
    return total


def test_float_enumeration_is_bit_identical_to_bfs_route():
    rng = random.Random(24)
    for g in [*_graphs(25, 120, 6, 9), _scrambled_k6()]:
        probs = [rng.random() for _ in range(g.num_edges)]
        assert reliability_enumerate(g, probs) == _enumerate_by_bfs(g, probs)


def test_exact_enumeration_equals_factorization():
    rng = random.Random(26)
    for g in _graphs(27, 80, 5, 7):
        probs = [Fraction(rng.randint(0, 8), 8) for _ in range(g.num_edges)]
        assert reliability_enumerate(g, probs) == reliability_factorize(g, probs)
