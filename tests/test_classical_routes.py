"""Differential checks of both classical routes against the loops they replaced.

``reliability_enumerate`` must return exactly what the plain per-state loop
returns, and ``reliability_factorize`` exactly what the plain
deletion/contraction recursion returns: the same type, floats with the same
bits, rationals equal.  Connectivity is checked a third way, by networkx.
Enumeration walks Python lists up to ``graphs.LIST_EDGES`` edges and chunked
arrays past that; at the boundary the array route is the oracle of the list
route.
"""

import random
from fractions import Fraction

import pytest

from qrelnet import Graph, classical, graphs, reliability_enumerate, reliability_factorize
from qrelnet.graphs import LIST_EDGES, MAX_EDGES

from helpers import (
    edge_case_graphs,
    enumerate_oracle,
    factorize_oracle,
    nx_is_connected,
    random_graph,
    scrambled_k6,
)


def _probabilities(rng, n: int, kind: str) -> list:
    """Floats, rationals, or a mix with ints; 0 and 1 appear often."""
    out = []
    for _ in range(n):
        pick = kind if kind != "mixed" else rng.choice(("int", "float", "fraction"))
        if pick == "int" or rng.random() < 0.1:
            out.append(rng.choice((0, 1)) if pick != "float" else rng.choice((0.0, 1.0)))
        elif pick == "float":
            out.append(rng.random())
        else:
            d = rng.randint(1, 30)
            out.append(Fraction(rng.randint(0, d), d))
    return out


def _same(a, b) -> bool:
    return type(a) is type(b) and a == b


KINDS = ("float", "fraction", "mixed")


@pytest.mark.parametrize("kind", KINDS)
def test_enumerate_matches_per_state_loop(kind, monkeypatch):
    rng = random.Random(41)
    for g in [*edge_case_graphs(42, 100, 6, 9), scrambled_k6()]:
        probs = _probabilities(rng, g.num_edges, kind)
        expected = enumerate_oracle(g, probs)
        # At the default gate every graph here takes the list route; with
        # no graph in lists, every graph takes the array route, and two-bit
        # chunks send those with more than two edges through its chunked
        # walk over the high edges.
        for list_edges, chunk_bits in ((LIST_EDGES, 16), (-1, 2)):
            monkeypatch.setattr(graphs, "LIST_EDGES", list_edges)
            monkeypatch.setattr(classical, "CHUNK_BITS", chunk_bits)
            assert _same(reliability_enumerate(g, probs), expected)


@pytest.mark.parametrize("kind", KINDS)
def test_factorize_matches_recursion(kind):
    rng = random.Random(43)
    for g in [*edge_case_graphs(44, 100, 6, 9), scrambled_k6()]:
        probs = _probabilities(rng, g.num_edges, kind)
        assert _same(reliability_factorize(g, probs), factorize_oracle(g, probs))


@pytest.mark.parametrize("kind", KINDS)
def test_networkx_connectivity_route(kind):
    rng = random.Random(45)
    for g in edge_case_graphs(46, 40, 5, 7):
        probs = _probabilities(rng, g.num_edges, kind)
        expected = enumerate_oracle(g, probs, connected=nx_is_connected)
        assert _same(reliability_enumerate(g, probs), expected)
        if kind == "fraction":
            assert _same(reliability_factorize(g, probs), expected)


def _multigraph(rng, num_vertices: int, num_edges: int) -> Graph:
    """Random connected multigraph with one loop and one parallel edge, in shuffled order."""
    vertices = [f"v{i}" for i in range(num_vertices)]
    edges = [(v, rng.choice(vertices[:i])) for i, v in enumerate(vertices) if i]
    while len(edges) < num_edges - 2:
        edges.append(tuple(rng.sample(vertices, 2)))
    edges += [(vertices[0], vertices[0]), rng.choice(edges)]
    rng.shuffle(edges)
    return Graph(tuple(vertices), tuple(edges))


@pytest.mark.parametrize("kind", KINDS)
def test_list_route_matches_array_route_at_one_chunk(kind, monkeypatch):
    # 16 edges take the list route and 17 the array route by default; each
    # is forced both ways through the gate and checked against the
    # per-state loop.
    rng = random.Random(49)
    for num_edges in (LIST_EDGES, LIST_EDGES + 1):
        g = _multigraph(rng, 7, num_edges)
        probs = _probabilities(rng, num_edges, kind)
        expected = enumerate_oracle(g, probs)
        for list_edges in (MAX_EDGES, -1):
            monkeypatch.setattr(graphs, "LIST_EDGES", list_edges)
            assert _same(reliability_enumerate(g, probs), expected)
        assert 0 < expected < 1


def test_exact_routes_agree_past_one_chunk():
    # 18 edges: the enumeration walks four chunks of 2**16 states.
    rng = random.Random(47)
    g = random_graph(rng, 7, 18, min_vertices=7, min_edges=18)
    probs = _probabilities(rng, g.num_edges, "fraction")
    assert _same(reliability_enumerate(g, probs), reliability_factorize(g, probs))
    floats = [float(p) for p in probs]
    assert reliability_enumerate(g, floats) == pytest.approx(reliability_factorize(g, floats), abs=1e-12)


def test_loop_edges_are_never_split():
    # Once edge 0 is contracted, edge 1 joins merged endpoints.  Splitting it
    # anyway would give 0.1 * 0.3 + 0.9 * 0.3, which is not 0.3 in floats.
    g = Graph(("a", "b", "c"), (("a", "b"), ("a", "b"), ("a", "c")))
    for r in (0.1, Fraction(1, 10)):
        probs = [0.5, r, 0.3]
        assert _same(reliability_factorize(g, probs), factorize_oracle(g, probs))
        assert reliability_factorize(g, probs) == 0.5 * 0.3 + 0.5 * (0.1 * 0.3)
