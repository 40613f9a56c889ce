"""``split_operator`` against the route it replaced, on both sides of the list gate.

``split_operator`` takes its cut check, weights and quotient rows from
``split_sides``, whose traces are Python lists up to ``graphs.LIST_EDGES``
edges per side and numpy arrays past that.  The oracle,
``helpers.split_operator_oracle``, traces both sides as arrays by
``component_traces``; the two must give the same read-only ``int64``
diagonal, which is the direct ``qr_operator`` of the union, whichever form
each side takes.
"""

import random

import numpy as np
import pytest

from qrelnet import Graph, graphs, qr_operator, split_operator, union_graph
from qrelnet.operators import split_sides

from helpers import split_operator_oracle


def _side(rng, verts, num_edges: int) -> tuple:
    """``num_edges`` random edges on ``verts``, about one in twelve a loop."""
    edges = []
    for _ in range(num_edges):
        a = rng.choice(verts)
        edges.append((a, a if rng.random() < 0.08 else rng.choice(verts)))
    return tuple(edges)


def _cut(rng, num_shared: int, k_edges: int, h_edges: int):
    """A random cut on ``num_shared`` shared vertices with sides of the given edge counts.

    Each side has up to three vertices of its own, which may be left
    without an edge.
    """
    shared = tuple(f"s{i}" for i in range(num_shared))
    k_verts = shared + tuple(f"k{i}" for i in range(rng.randint(0, 3)))
    h_verts = shared + tuple(f"h{i}" for i in range(rng.randint(0, 3)))
    return Graph(k_verts, _side(rng, k_verts, k_edges)), Graph(h_verts, _side(rng, h_verts, h_edges)), shared


def _cuts():
    """Seeded cuts on 1-4 shared vertices and sides of 0-17 edges, and the seven-shared ring and star."""
    rng = random.Random(29)
    sizes = [(17, 0), (0, 17), (17, 4), (3, 17), (16, 5), (5, 16), (12, 8), (8, 12), (16, 1), (1, 1)]
    sizes += [(rng.randint(0, 17), rng.randint(0, 3)) for _ in range(4)]
    sizes += [(rng.randint(0, 3), rng.randint(0, 17)) for _ in range(4)]
    cuts = [_cut(rng, 1 + i % 4, nk, nh) for i, (nk, nh) in enumerate(sizes)]
    ring = tuple("abcdefg")
    star = Graph(ring + ("z",), tuple((v, "z") for v in ring))
    ring_edges = tuple(zip(ring, ring[1:] + ring[:1]))
    chords = tuple(zip(ring, ring[2:] + ring[:2]))[:6]
    cuts.append((Graph(ring, ring_edges), star, ring))
    cuts.append((Graph(ring, ring_edges + chords), star, ring))  # 20 edges, 877 partitions
    k, h, shared = cuts[0]
    cuts.append((Graph(shared + ("x",), ()), h, shared))  # k has no edge and an isolated vertex
    return cuts


CUTS = _cuts()


def test_the_cuts_cover_the_corner_cases():
    edges = [e for k, h, _ in CUTS for e in k.edges + h.edges]
    assert any(a == b for a, b in edges)  # loops
    assert any(len(set(g.edges)) < g.num_edges for k, h, _ in CUTS for g in (k, h))  # parallel edges
    assert {len(shared) for _, _, shared in CUTS} == {1, 2, 3, 4, 7}
    side_sizes = {g.num_edges for k, h, _ in CUTS for g in (k, h)}
    assert {0, 16, 17} <= side_sizes and max(side_sizes) == 17
    assert any(g.num_edges == 0 and len(g.vertices) > len(shared) for k, h, shared in CUTS for g in (k, h))


@pytest.fixture(scope="module")
def expected():
    """The oracle's diagonal of every cut, checked once against the direct operator."""
    diagonals = []
    for k, h, shared in CUTS:
        oracle = split_operator_oracle(k, h, shared)
        assert np.array_equal(oracle, qr_operator(union_graph(k, h, shared)))
        diagonals.append(oracle)
    return diagonals


@pytest.mark.parametrize("list_edges", [None, -1, 24], ids=["default", "arrays", "lists"])
def test_split_operator_equals_the_component_traces_oracle(monkeypatch, expected, list_edges):
    if list_edges is not None:
        monkeypatch.setattr(graphs, "LIST_EDGES", list_edges)
    for (k, h, shared), oracle in zip(CUTS, expected):
        _, (_, k_ids), (_, h_ids) = split_sides(k, h, shared)
        for g, ids in ((k, k_ids), (h, h_ids)):
            assert isinstance(ids, list) is graphs.in_lists(g.num_edges)
        op = split_operator(k, h, shared)
        assert op.dtype == np.int64 and not op.flags.writeable, (k, h, shared)
        assert np.array_equal(op, oracle), (k, h, shared)
