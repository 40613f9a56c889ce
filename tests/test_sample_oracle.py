"""``born_sample`` against the route it replaced, bit for bit.

``helpers.born_sample_oracle`` draws all ``n`` numbers in one call, sorts a
copy, finds the last positive weight by ``np.flatnonzero`` and averages a
float64 copy of the diagonal; ``born_sample`` draws, sorts and counts the
``uint8`` flags ``2 ** CHUNK_BITS`` draws at a time, and finds that state from
the end of the weights.  Both must give the same estimate and standard error
on every state, draw count and seed, on list-held states (at most 16 edges)
and array-held ones; the draw counts straddle one chunk.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from qrelnet import Graph, QubitSpec, StateVector, born_sample, product_state, two_term_state

from helpers import born_sample_oracle, random_state

EDGES = (3, 16, 17, 20)
DRAWS = (1, 7, 2 ** 16, 2 ** 16 + 1, 200_000)


@functools.cache
def chorded_ring(num_edges: int) -> Graph:
    """A ring on ``ceil(num_edges / 2)`` vertices, then chords ``(i, i + 2)`` up to ``num_edges`` edges."""
    n = max(3, -(-num_edges // 2))
    names = [f"v{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    edges += [(names[i], names[(i + 2) % n]) for i in range(num_edges - n)]
    return Graph(tuple(names), tuple(edges))


@functools.cache
def state(num_edges: int, kind: str, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    if kind == "product":
        return product_state([QubitSpec(float(p), complex(math.cos(t), math.sin(t)))
                              for p, t in zip(rng.uniform(0.5, 0.99, num_edges), rng.uniform(0, 6.3, num_edges))])
    if kind == "two_term":
        # Every edge down, and every edge but the last up: the upper half of the weights is zero.
        p, t = rng.uniform(0.2, 0.8), rng.uniform(0, 6.3)
        phase = complex(math.cos(t), math.sin(t))
        return two_term_state(chorded_ring(num_edges), 0, (1 << num_edges - 1) - 1, p, phase)
    return random_state(num_edges, seed)


@pytest.mark.parametrize("n", DRAWS)
@pytest.mark.parametrize("kind", ("product", "two_term", "dense"))
@pytest.mark.parametrize("num_edges", EDGES)
def test_born_sample_equals_the_former_route(num_edges, kind, n):
    g, psi = chorded_ring(num_edges), state(num_edges, kind, num_edges)
    assert g.num_edges == num_edges
    for seed in (0, 11):
        new, old = born_sample(g, psi, n, seed), born_sample_oracle(g, psi, n, seed)
        assert new.estimate == old.estimate and new.stderr == old.stderr, (seed, new, old)
        assert type(new.estimate) is type(old.estimate) is float


def test_both_routes_skip_the_zero_tail_past_the_cumulative_table(monkeypatch):
    # The state of test_born_draws_past_the_cumulative_table_skip_zero_weight_states:
    # weights summing to 1 - 5e-11, every draw past their sum, the all-up state of zero weight.
    class LastDraw:
        def random(self, n):
            return np.full(n, 1 - 1e-12)

    monkeypatch.setattr(np.random, "default_rng", lambda seed: LastDraw())
    g = Graph(("a", "b"), (("a", "b"),))
    psi = StateVector(1, np.array([math.sqrt(1 - 5e-11), 0]))
    assert born_sample(g, psi, 10, seed=0) == born_sample_oracle(g, psi, 10, seed=0) == (0.0, 0.0)


def test_the_peak_does_not_grow_with_the_draws():
    # At about 17 bytes a draw held at once, 2e6 draws would peak about 30 MB above 2e5.
    g, psi = chorded_ring(16), state(16, "dense", 16)

    def peak(n: int) -> int:
        tracemalloc.start()
        try:
            born_sample(g, psi, n, seed=5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert abs(peak(2_000_000) - peak(200_000)) <= 5 << 20
