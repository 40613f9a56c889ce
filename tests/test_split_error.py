"""How far ``hybrid`` and ``sublayer`` print from the exact value of their own formula.

The golden jobs glue a quantum 4-cycle onto the corners of a classical 3x3
grid, with a product and a two-term quantum state, at seeds 0, 3 and 7.
``helpers.split_formula_exact`` gives the exact value of every term
``beta * Q(k / gamma) * R(h / gamma')`` from the exact Born weights of the
parsed float parts, the exact Bernoulli weights of the float probabilities
and the exact beta.  Every printed float must lie within
``helpers.error_bound`` of its exact value, which needs the roundings of
each term's float route ``fl(fl(fl(n / den) * Q) * R)``:

- ``Q``: two per Born weight (two squares and their sum), then one per
  addition of at most ``2 ** |E_k|`` flagged weights to 0.0;
- ``R``: one per factor ``1 - p`` and one per product of the ``|E_h|``
  factors, then one per addition of at most ``2 ** |E_h|`` weights to 0.0;
- three for ``n / den`` and the two products.

``hybrid`` adds every term; ``sublayer`` prints each term off the
single-block row, the classical baseline ``R(h)``, and their total.  The
bound assumes that no value underflows, which the test checks.

``ULPS`` records how far each job's printed value (``hybrid``) or total
(``sublayer``) is from its exact value, in units in the last place of the
printed float; a change of bits then shows whether accuracy rose or fell.
"""

import contextlib
import io
import json
import math
from fractions import Fraction

import pytest

from qrelnet import Partition, single_block
from qrelnet.cli import main
from qrelnet.hybrid import canonical_decomposition
from qrelnet.serialize import parse_hybrid_state, parse_tagged_graph

from helpers import error_bound, split_formula_exact, ulps
from test_job_goldens import SEEDS, build_fixtures

KINDS = ("product", "two_term")
ULPS = {
    "0/hybrid.sublayer.product": 9.93,
    "0/sublayer.sublayer.product": 10.87,
    "0/hybrid.sublayer.two_term": 20.14,
    "0/sublayer.sublayer.two_term": 24.13,
    "3/hybrid.sublayer.product": 2.33,
    "3/sublayer.sublayer.product": 2.94,
    "3/hybrid.sublayer.two_term": 1.4,
    "3/sublayer.sublayer.two_term": 9.36,
    "7/hybrid.sublayer.product": 2.16,
    "7/sublayer.sublayer.product": 1.14,
    "7/hybrid.sublayer.two_term": 5.18,
    "7/sublayer.sublayer.two_term": 0.16,
}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    directory = tmp_path_factory.mktemp("jobs")
    build_fixtures(directory, ("lattice_split",))
    return directory / "lattice_split"


def printed(command: str, graph, state) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--graph", str(graph), "--state", str(state)]) == 0
    return json.loads(out.getvalue())


def partition(blocks) -> Partition:
    return Partition(tuple(map(tuple, blocks)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_hybrid_and_sublayer_print_within_the_a_priori_bound(built, seed, kind, monkeypatch):
    monkeypatch.delenv("QRELNET_MAX_EDGES", raising=False)
    graph, state = built / str(seed) / "sublayer.json", built / str(seed) / f"sublayer.{kind}.json"
    g, kinds = parse_tagged_graph(json.loads(graph.read_text()))
    decomp = canonical_decomposition(g, kinds)
    hybrid_state = parse_hybrid_state(json.loads(state.read_text()), decomp)
    # No value underflows: each nonzero part squares, and each state's weight multiplies, to a normal float.
    assert all(abs(x) > 2.0 ** -500 for a in hybrid_state.quantum.amplitudes.tolist() for x in (a.real, a.imag) if x)
    assert math.prod(min(x for x in (p, 1 - p) if x) for p in hybrid_state.classical) > 2.0 ** -1000
    formula = split_formula_exact(decomp, hybrid_state)
    k, h = decomp.quantum, decomp.classical
    q_roundings = 2 + (1 << k.num_edges) - 1
    r_roundings = 2 * h.num_edges + (1 << h.num_edges) - 1
    t_roundings = 3 + q_roundings + r_roundings
    terms = {pair: Fraction(n, formula.den) for pair, (_, n) in formula.terms.items()}
    classical = Fraction(formula.classical, formula.den)

    value = printed("hybrid", graph, state)["value"]
    exact = sum(terms.values())
    assert abs(Fraction(value) - exact) <= error_bound(terms.values(), [t_roundings] * len(terms))
    errors = {f"{seed}/hybrid.sublayer.{kind}": ulps(value, exact)}

    out = printed("sublayer", graph, state)
    top = single_block(decomp.shared)
    corrections = {pair: x for pair, x in terms.items() if pair[0] != top}
    by_pair = {(partition(c["gamma"]), partition(c["gamma_prime"])): c for c in out["corrections"]}
    assert list(by_pair) == list(corrections)
    for pair, c in by_pair.items():
        assert Fraction(c["beta"]) == formula.terms[pair][0]
        assert abs(Fraction(c["value"]) - corrections[pair]) <= error_bound([corrections[pair]], [t_roundings])
    assert abs(Fraction(out["classical"]) - classical) <= error_bound([classical], [r_roundings])
    exact = classical + sum(corrections.values())
    bound = error_bound([classical, *corrections.values()], [r_roundings] + [t_roundings] * len(corrections))
    assert abs(Fraction(out["total"]) - exact) <= bound
    errors[f"{seed}/sublayer.sublayer.{kind}"] = ulps(out["total"], exact)
    assert errors == {key: ULPS[key] for key in errors}
