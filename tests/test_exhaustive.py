"""Exhaustive small-scope checks of operators and reliability over ``networkx.graph_atlas_g()``.

No randomness: every graph of the atlas up to a size bound, every cut of it
into two edge sets and every kept vertex set is checked.  Small scopes find
the corner cases (isolated vertices, a kept set that is all of the graph, a
side with one edge) that random graphs reach only by chance.  The kept-set
families and the reliability check run again with a self-loop added and an
edge doubled, since no atlas graph is a multigraph.
"""

from fractions import Fraction
from itertools import chain, combinations

import networkx as nx
import numpy as np
import sympy

from qrelnet import (
    MAX_EDGES,
    Graph,
    connectivity_matrix,
    enumerate_partitions,
    graphs,
    o_gamma_operator,
    qr_operator,
    quotient,
    reliability_enumerate,
    reliability_factorize,
)
from qrelnet.operators import quotient_side, verify_split

from helpers import bfs_trace, factorize_oracle

ATLAS = nx.graph_atlas_g()


def atlas_graphs(max_vertices: int, max_edges: int):
    """``(index, Graph)`` of every atlas graph within both bounds, vertices named by their numbers."""
    for index, g in enumerate(ATLAS):
        if g.number_of_nodes() <= max_vertices and g.number_of_edges() <= max_edges:
            yield index, Graph(tuple(map(str, g.nodes())), tuple((str(a), str(b)) for a, b in g.edges()))


def cuts(g: Graph):
    """Every split of the edges of ``g`` into two graphs ``k`` and ``h`` that share a vertex.

    Each side holds the endpoints of its edges; isolated vertices go to ``h``.
    """
    isolated = tuple(v for v in g.vertices if not any(v in e for e in g.edges))
    for mask in range(1 << g.num_edges):
        k_edges = tuple(e for i, e in enumerate(g.edges) if mask >> i & 1)
        h_edges = tuple(e for i, e in enumerate(g.edges) if not mask >> i & 1)
        k_vertices = tuple(v for v in g.vertices if any(v in e for e in k_edges))
        h_vertices = tuple(v for v in g.vertices if v in isolated or any(v in e for e in h_edges))
        shared = [v for v in k_vertices if v in h_vertices]
        if shared:
            yield Graph(k_vertices, k_edges), Graph(h_vertices, h_edges), shared


def kept_sets():
    """``(Graph, u)`` for every atlas graph with at most 4 vertices and every kept set of 1-3 of them."""
    for _, g in atlas_graphs(4, 6):  # K4 has 6 edges, so this is every graph up to 4 vertices
        for size in range(1, min(3, len(g.vertices)) + 1):
            for u in combinations(g.vertices, size):
                yield g, list(u)


def multigraph_kept_sets():
    """:func:`kept_sets` with a self-loop added first to each graph and its edge 0 (if any) doubled last."""
    for g, u in kept_sets():
        loop = (g.vertices[-1], g.vertices[-1])
        yield Graph(g.vertices, (loop,) + g.edges + g.edges[:1]), u


def test_every_cut_of_the_small_atlas_splits_exactly():
    count = 0
    for index, g in atlas_graphs(5, 8):
        for k, h, shared in cuts(g):
            assert verify_split(k, h, shared), (index, k, h, shared)
            count += 1
    assert count == 1818


def test_o_gamma_projectors_are_the_component_traces():
    count = 0
    for g, u in chain(kept_sets(), multigraph_kept_sets()):
        partitions = enumerate_partitions(u)
        ops = np.array([o_gamma_operator(g, u, gamma) for gamma in partitions])
        traces = [bfs_trace(g, u, state) for state in range(g.num_states)]
        # One projector per trace, so the family sums to the island-free indicator.
        assert ops.sum(axis=0).tolist() == [int(t is not None) for t in traces]
        assert ops.tolist() == [[int(t == gamma) for t in traces] for gamma in partitions]
        count += 1
    assert count == 2 * 189


def test_quotient_side_rows_are_the_quotient_projectors(monkeypatch):
    for g, u in chain(kept_sets(), multigraph_kept_sets()):
        cm = connectivity_matrix(u)
        expected = [qr_operator(quotient(g, u, gamma)).tolist() for gamma in cm.order]
        # Both forms of the side: every graph in lists, then none.
        for list_edges in (MAX_EDGES, -1):
            monkeypatch.setattr(graphs, "LIST_EDGES", list_edges)
            rows, ids = quotient_side(g, u, cm)
            assert isinstance(ids, list) == (list_edges == MAX_EDGES)
            for row, flags, gamma in zip(rows, expected, cm.order):
                assert [row[s] for s in ids] == flags, (g, u, gamma)


def tutte_reliability(g: Graph, p: Fraction) -> Fraction:
    """All-terminal reliability of connected ``g`` from its Tutte polynomial.

    ``R = p^(n-1) (1-p)^(m-n+1) T(G; 1, 1/(1-p))`` for edges that work with
    probability ``p`` (Brylawski & Oxley, 1992); networkx computes ``T`` by
    its own deletion/contraction, sharing no code with qrelnet.
    """
    multigraph = nx.MultiGraph()
    multigraph.add_nodes_from(g.vertices)
    multigraph.add_edges_from(g.edges)
    tutte = sympy.Poly(nx.tutte_polynomial(multigraph), *sympy.symbols("x y"))
    q = 1 - p
    n, m = len(g.vertices), g.num_edges
    return p ** (n - 1) * q ** (m - n + 1) * sum(int(c) * (1 / q) ** j for (_, j), c in tutte.terms())


def test_reliability_is_the_tutte_evaluation_on_atlas_graphs_and_multigraphs():
    count = 0
    for index, g in atlas_graphs(5, 10):  # K5 has 10 edges
        if not g.vertices or not nx.is_connected(ATLAS[index]):
            continue
        cases = [(g, Fraction(1, 3)), (g, Fraction(2, 5))]
        if g.edges:
            # A self-loop and a parallel edge, which no atlas graph has.
            loop = (g.vertices[-1], g.vertices[-1])
            cases.append((Graph(g.vertices, (loop,) + g.edges + g.edges[:1]), Fraction(1, 3)))
        for h, p in cases:
            probs = [p] * h.num_edges
            values = [reliability_enumerate(h, probs), reliability_factorize(h, probs), factorize_oracle(h, probs)]
            assert all(isinstance(v, Fraction) for v in values), (index, h, values)
            assert values == [tutte_reliability(h, p)] * 3, (index, h, p)
            count += 1
    assert count == 92
