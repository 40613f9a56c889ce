"""Metamorphic relations: how an output must move when its input moves.

Each test changes an input in a way whose effect on the output is known
exactly, and compares the two runs of qrelnet with each other rather than
with an oracle (Chen, Cheung & Yiu, HKUST-CS98-01, 1998; Segura et al.,
IEEE TSE 2016).  Every instance comes from a seeded generator.
"""

import random

import numpy as np
import pytest

from qrelnet import (
    Graph,
    Partition,
    enumerate_partitions,
    o_gamma_operator,
    reliability_factorize,
    split_operator,
    verify_split,
)

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
