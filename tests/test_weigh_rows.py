"""Differential checks of the one weigher, ``classical.weigh_rows``, on Born weights.

``qr``, ``hybrid``, ``sublayer`` and ``qr_split_value`` weigh every quotient
row of a side by ``weigh_rows(rows, ids, psi.weights)``.  The route it
replaced, ``helpers.quotient_values_oracle``, and ``qr_value`` of each
row's diagonal must give the same bits, on product, two-term and dense
states at the edge counts around ``graphs.LIST_EDGES``: on the list route,
on the array route, and on the array route walked in four-state chunks.
Exact sums stay exact.
"""

import cmath
import random

import numpy as np
import pytest

from qrelnet import Graph, QubitSpec, classical, connectivity_matrix, graphs, product_state, two_term_state
from qrelnet.classical import sum_in_order, weigh_rows
from qrelnet.graphs import MAX_EDGES
from qrelnet.operators import qr_value, quotient_side

from helpers import quotient_values_oracle, random_state

SHARED = ("v0", "v3", "v5")


def _graph(rng, num_edges: int) -> Graph:
    """A multigraph on seven vertices, with a spanning path, a loop and a parallel edge."""
    vertices = tuple(f"v{i}" for i in range(7))
    edges = [(a, b) for a, b in zip(vertices, vertices[1:])]
    edges += [("v2", "v2"), edges[0]]
    while len(edges) < num_edges:
        edges.append(tuple(rng.sample(vertices, 2)))
    rng.shuffle(edges)
    return Graph(vertices, tuple(edges))


def _states(rng, g: Graph, seed: int):
    n = g.num_edges
    phase = lambda: cmath.exp(1j * rng.uniform(0.0, 2.0 * cmath.pi))
    # chi, every edge up, connects every quotient, so each row weighs something.
    zeta, chi = rng.randrange((1 << n) - 1), (1 << n) - 1
    return {
        "product": product_state(QubitSpec(rng.random(), phase()) for _ in range(n)),
        "two_term": two_term_state(g, zeta, chi, rng.random(), phase()),
        "dense": random_state(n, seed),
    }


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("route", ["lists", "arrays", "arrays-in-four-state-chunks"])
@pytest.mark.parametrize("num_edges", [15, 16, 17])
def test_weigh_rows_has_the_bits_of_the_route_it_replaced(monkeypatch, route, num_edges):
    monkeypatch.setattr(graphs, "LIST_EDGES", MAX_EDGES if route == "lists" else -1)
    if route == "arrays-in-four-state-chunks":
        monkeypatch.setattr(classical, "CHUNK_BITS", 2)
    rng = random.Random(num_edges)
    g = _graph(rng, num_edges)
    cm = connectivity_matrix(SHARED)
    rows, ids = side = quotient_side(g, SHARED, cm)
    assert isinstance(ids, list) == (route == "lists")
    for form, psi in _states(rng, g, num_edges).items():
        got = weigh_rows(rows, ids, psi.weights)
        assert _hex(got) == _hex(quotient_values_oracle(side, psi)), form
        assert _hex(got) == _hex(qr_value(np.array(row)[ids], psi) for row in rows), form
        assert all(type(v) is float and v > 0 for v in got), form


def test_sum_in_order_adds_an_object_array_of_ints_exactly():
    values = [2**63 + 1, 3, -(2**64), 2**70 + 7, 2**63 - 1, 5]
    total = sum_in_order(np.array(values, dtype=object), 0)
    assert type(total) is int and total == sum(values)
    assert sum_in_order(np.array(values[:2], dtype=object), total) == total + 2**63 + 4
