"""Differential checks of the one-pass quotient route against quotient graphs.

``qr_split_value``, ``hybrid_qr`` and ``sublayer_qr`` read every quotient
``g / gamma`` from one frontier pass per side through
``operators.quotient_side``, whose rows are checked on both forms, lists and
arrays.  The oracles in ``helpers`` build each quotient graph and evaluate it
on its own, as the library did before; floats must agree bit for bit.
"""

import random
from fractions import Fraction

from qrelnet import (
    MAX_EDGES,
    Decomposition,
    Graph,
    HybridState,
    connectivity_matrix,
    graphs,
    hybrid_qr,
    qr_operator,
    qr_split_value,
    qr_value,
    quotient,
    reliability_enumerate,
    single_block,
    sublayer_qr,
)
from qrelnet.operators import quotient_side

from helpers import quotient_loop, random_split, random_state, split_terms_oracle, sum_in_order


def _cuts(seed: int, count: int):
    """Cuts with 1-4 shared vertices, loops, parallel edges, stray vertices
    outside the shared set and sides with no edges."""
    rng = random.Random(seed)
    for trial in range(count):
        yield rng, trial, random_split(rng, 1 + trial % 4, 2, 8, min_side_edges=0)


def _probabilities(rng, trial: int, n: int) -> tuple:
    if trial % 5 == 4:
        return tuple(Fraction(rng.randint(0, 6), 6) for _ in range(n))
    return tuple(rng.random() for _ in range(n))


def _quantum_loop(g, shared, psi):
    return quotient_loop(g, shared, lambda q: qr_value(qr_operator(q), psi))


def _classical_loop(g, shared, probs):
    return quotient_loop(g, shared, lambda q: float(reliability_enumerate(q, list(probs))))


def test_every_row_is_the_quotient_projector(monkeypatch):
    for _, _, (k, h, shared) in _cuts(31, 80):
        cm = connectivity_matrix(shared)
        for g in (k, h):
            expected = [qr_operator(quotient(g, shared, p)).tolist() for p in cm.order]
            # Both forms of the side: every graph in lists, then none.
            for list_edges in (MAX_EDGES, -1):
                monkeypatch.setattr(graphs, "LIST_EDGES", list_edges)
                rows, ids = quotient_side(g, shared, cm)
                assert isinstance(ids, list) == (list_edges == MAX_EDGES)
                assert [row[0] for row in rows] == [0] * len(cm.order)
                assert all(set(row) <= {0, 1} for row in rows)
                for row, flags in zip(rows, expected):
                    assert [row[s] for s in ids] == flags


def test_qr_split_value_equals_quotient_loop():
    for _, trial, (k, h, shared) in _cuts(32, 60):
        psi_k = random_state(k.num_edges, 100 + trial)
        psi_h = random_state(h.num_edges, 200 + trial)
        terms = split_terms_oracle(shared, _quantum_loop(k, shared, psi_k), _quantum_loop(h, shared, psi_h))
        assert qr_split_value(k, h, shared, psi_k, psi_h) == sum_in_order(t[3] for t in terms)


def test_hybrid_qr_equals_quotient_loop():
    for rng, trial, (k, h, shared) in _cuts(33, 60):
        psi = random_state(k.num_edges, 300 + trial)
        probs = _probabilities(rng, trial, h.num_edges)
        decomp = Decomposition(k, h, tuple(shared))
        terms = split_terms_oracle(shared, _quantum_loop(k, shared, psi), _classical_loop(h, shared, probs))
        assert hybrid_qr(decomp, HybridState(psi, probs)) == sum_in_order(t[3] for t in terms)


def test_sublayer_qr_equals_quotient_loop():
    for rng, trial, (_, h, shared) in _cuts(34, 60):
        # A sublayer's quantum graph lives on exactly the shared vertices.
        k = Graph(tuple(shared), tuple((rng.choice(shared), rng.choice(shared)) for _ in range(rng.randint(0, 3))))
        psi = random_state(k.num_edges, 400 + trial)
        probs = _probabilities(rng, trial, h.num_edges)
        result = sublayer_qr(Decomposition(k, h, tuple(shared)), HybridState(psi, probs))

        baseline = float(reliability_enumerate(h, list(probs)))
        terms = split_terms_oracle(shared, _quantum_loop(k, shared, psi), _classical_loop(h, shared, probs))
        terms = [t for t in terms if t[0] != single_block(shared)]
        assert result.classical == baseline
        assert [tuple(c) for c in result.corrections] == terms
        assert result.total == baseline + sum_in_order(t[3] for t in terms)
