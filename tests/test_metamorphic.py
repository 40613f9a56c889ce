"""Metamorphic relations: how an output must move when its input moves.

Each test changes an input in a way whose effect on the output is known
exactly, and compares the two runs of qrelnet with each other rather than
with an oracle (Chen, Cheung & Yiu, HKUST-CS98-01, 1998; Segura et al.,
IEEE TSE 2016).  Every instance comes from a seeded generator.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from qrelnet import (
    Graph,
    Partition,
    enumerate_partitions,
    o_gamma_operator,
    qr_operator,
    reliability_enumerate,
    reliability_factorize,
    split_operator,
    verify_split,
)
from qrelnet.cli import main

from helpers import random_graph, random_probabilities, random_split


def _cuts(seed: int, count: int):
    rng = random.Random(seed)
    return [random_split(rng, 1 + trial % 4, 2, 10, min_side_edges=0) for trial in range(count)]


def _renamed(g: Graph, name) -> Graph:
    return Graph(tuple(map(name, g.vertices)), tuple((name(a), name(b)) for a, b in g.edges))


def _renaming(rng, names):
    """A bijection onto fresh names, shuffled so that their sorted order changes too."""
    names = sorted(set(names))
    fresh = [f"r{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    return dict(zip(names, fresh)).__getitem__


def test_swapping_the_sides_swaps_the_bit_halves():
    # split_operator(k, h) puts h in the low bits and k in the high bits, so
    # with the sides swapped each state index has its two halves swapped.
    for k, h, shared in _cuts(11, 24):
        forward, backward = split_operator(k, h, shared), split_operator(h, k, shared)
        halves = (1 << k.num_edges, 1 << h.num_edges)
        assert np.array_equal(backward.reshape(halves[::-1]), forward.reshape(halves).T)
        assert verify_split(k, h, shared) == verify_split(h, k, shared)


def test_renaming_the_vertices_changes_no_operator():
    rng = random.Random(12)
    for k, h, shared in _cuts(12, 16):
        name = _renaming(rng, k.vertices + h.vertices)
        new_k, new_h, new_shared = _renamed(k, name), _renamed(h, name), [name(v) for v in shared]
        assert verify_split(new_k, new_h, new_shared) == verify_split(k, h, shared)
        assert np.array_equal(split_operator(new_k, new_h, new_shared), split_operator(k, h, shared))
        for gamma in enumerate_partitions(shared):
            new_gamma = Partition(tuple(tuple(map(name, block)) for block in gamma.blocks))
            assert np.array_equal(o_gamma_operator(new_h, new_shared, new_gamma), o_gamma_operator(h, shared, gamma))


@pytest.mark.parametrize("seed", range(4))
def test_a_self_loop_leaves_the_factor_bits_unchanged(seed):
    # A loop is up or down without changing connectivity, and the recursion
    # skips it: the value keeps its bits, wherever the loop is listed.
    rng = random.Random(seed)
    for _ in range(75):
        g = random_graph(rng, 6, 10, min_vertices=2, min_edges=1)
        probs = random_probabilities(rng, g.num_edges)
        expected = reliability_factorize(g, probs).hex()
        at, v, p = rng.randint(0, g.num_edges), rng.choice(g.vertices), rng.random()
        looped = Graph(g.vertices, g.edges[:at] + ((v, v),) + g.edges[at:])
        assert reliability_factorize(looped, probs[:at] + [p] + probs[at:]).hex() == expected


# Both classical routes, each held to the exact relations below.
ROUTES = pytest.mark.parametrize("route", [reliability_enumerate, reliability_factorize],
                                 ids=["enum", "factor"])


def _exact_probabilities(rng, n: int, *, ends: bool = True) -> list[Fraction]:
    """Rationals over small denominators, strictly between 0 and 1 but for a few 0s and 1s."""
    out = []
    for _ in range(n):
        d = rng.randint(2, 9)
        out.append(Fraction(rng.randint(0, d) if ends and rng.random() < 0.1 else rng.randint(1, d - 1), d))
    return out


def _graphs(seed: int, count: int, max_vertices: int = 6, max_edges: int = 10):
    """Seeded multigraphs with loops and parallel edges, each with exact probabilities."""
    rng = random.Random(seed)
    for _ in range(count):
        g = random_graph(rng, max_vertices, max_edges, min_vertices=2, min_edges=1)
        yield rng, g, _exact_probabilities(rng, g.num_edges)


@ROUTES
def test_permuting_the_edges_leaves_the_exact_value(route):
    for rng, g, probs in _graphs(21, 150):
        order = list(range(g.num_edges))
        rng.shuffle(order)
        permuted = Graph(g.vertices, tuple(g.edges[i] for i in order))
        assert route(permuted, [probs[i] for i in order]) == route(g, probs)


def test_permuting_the_edges_permutes_the_bits_of_every_diagonal():
    # Listed as ``order``, edge j of the new graph is edge order[j] of the
    # old one, so bit j of each new state is bit order[j] of an old state.
    for rng, g, _ in _graphs(22, 80):
        order = list(range(g.num_edges))
        rng.shuffle(order)
        permuted = Graph(g.vertices, tuple(g.edges[i] for i in order))
        old_states = [sum((t >> j & 1) << i for j, i in enumerate(order)) for t in range(g.num_states)]
        u = [v for v in g.vertices if rng.random() < 0.5] or list(g.vertices[:1])
        pairs = [(qr_operator(permuted), qr_operator(g))]
        pairs += [(o_gamma_operator(permuted, u, gamma), o_gamma_operator(g, u, gamma))
                  for gamma in enumerate_partitions(u)]
        for new, old in pairs:
            assert new.tolist() == old[old_states].tolist()


@ROUTES
def test_parallel_edges_reduce_to_one(route):
    # A second copy of edge e, up with probability q, acts as one edge that
    # is up unless both copies are down.
    for rng, g, probs in _graphs(22, 150, max_edges=9):
        e, at, q = rng.randrange(g.num_edges), rng.randint(0, g.num_edges), _exact_probabilities(rng, 1)[0]
        doubled = Graph(g.vertices, g.edges[:at] + (g.edges[e],) + g.edges[at:])
        reduced = probs[:e] + [1 - (1 - probs[e]) * (1 - q)] + probs[e + 1:]
        assert route(doubled, probs[:at] + [q] + probs[at:]) == route(g, reduced)


@ROUTES
def test_series_edges_reduce_to_one(route):
    # Subdividing edge e = (a, b) into (a, m) up with p and (m, b) up with q:
    # m is reached with probability w = p + q - pq, and given that, a and b
    # are joined through m with probability pq / w.  For all-terminal
    # reliability the plain pq fails, since m must be reached too.
    for rng, g, probs in _graphs(23, 150, max_edges=9):
        e, at = rng.randrange(g.num_edges), rng.randint(0, g.num_edges)
        (a, b), (p, q) = g.edges[e], _exact_probabilities(rng, 2, ends=False)
        w = p + q - p * q
        edges = list(g.edges[:e] + ((a, "m"),) + g.edges[e + 1:])
        split_probs = probs[:e] + [p] + probs[e + 1:]
        edges.insert(at, ("m", b))
        split_probs.insert(at, q)
        subdivided = Graph(g.vertices + ("m",), tuple(edges))
        reduced = probs[:e] + [p * q / w] + probs[e + 1:]
        assert route(subdivided, split_probs) == w * route(g, reduced)


@ROUTES
@pytest.mark.parametrize("pendant", [False, True])
def test_a_bridge_factors_the_value(route, pendant):
    # G is G1 and G2 joined by one bridge e: it is connected exactly when e
    # is up and both halves are, so R(G) = p_e R(G1) R(G2).  A pendant edge
    # is a bridge to a single vertex, whose reliability is 1.
    rng = random.Random(24 + pendant)
    for _ in range(100):
        g1 = _renamed(random_graph(rng, 4, 6, min_edges=1), "a{}".format)
        g2 = Graph(("b",), ()) if pendant else _renamed(random_graph(rng, 4, 6), "b{}".format)
        p1, p2, (p_e,) = (_exact_probabilities(rng, n) for n in (g1.num_edges, g2.num_edges, 1))
        halves = list(zip(g1.edges + g2.edges, p1 + p2))
        rng.shuffle(halves)
        halves.insert(rng.randint(0, len(halves)), ((rng.choice(g1.vertices), rng.choice(g2.vertices)), p_e))
        whole = Graph(g1.vertices + g2.vertices, tuple(edge for edge, _ in halves))
        expected = p_e * route(g1, p1) * route(g2, p2)
        assert route(whole, [prob for _, prob in halves]) == expected


def _cli(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _graph_file(path, g: Graph) -> str:
    path.write_text(json.dumps({"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}))
    return str(path)


def test_split_verify_prints_the_same_bytes_with_the_sides_swapped(tmp_path):
    k2, h2, _ = random_split(random.Random(31), 2, 1, 6)
    far = Graph(("x", "y"), (("x", "y"),))
    eight = tuple("abcdefgh")
    ring = Graph(eight, tuple(zip(eight, eight[1:] + eight[:1])))
    cuts = _cuts(31, 12)
    cuts += [(k2, h2, ["s0"]), (k2, far, []), (ring, ring, list(eight))]  # overlap, empty and capacity errors
    outcomes = set()
    for k, h, shared in cuts:
        k_file, h_file = _graph_file(tmp_path / "k.json", k), _graph_file(tmp_path / "h.json", h)
        shared_text = ",".join(shared)
        forward = _cli("split-verify", "--k", k_file, "--h", h_file, "--shared", shared_text)
        assert _cli("split-verify", "--k", h_file, "--h", k_file, "--shared", shared_text) == forward
        outcomes.add(forward[0])
    assert outcomes == {0, 2}


@pytest.mark.parametrize("method", ["enum", "factor"])
def test_reliability_prints_the_same_exact_bytes_in_any_listing_order(tmp_path, method):
    # The same network listed with its vertices and edges in another order,
    # and --p permuted with the edges, has the same exact reliability.
    for rng, g, probs in _graphs(32, 25):
        vertices, order = list(g.vertices), list(range(g.num_edges))
        rng.shuffle(vertices)
        rng.shuffle(order)
        relisted = Graph(tuple(vertices), tuple(g.edges[i] for i in order))
        runs = [_cli("reliability", "--graph", _graph_file(tmp_path / "g.json", graph), "--p",
                     ",".join(map(str, ps)), "--method", method, "--exact")
                for graph, ps in ((g, probs), (relisted, [probs[i] for i in order]))]
        assert runs[0][0] == 0 and runs[1] == runs[0]
