"""How far ``qr`` and float ``reliability --method enum`` print from their exact values.

The golden jobs of ``perfbench/fixtures.py`` at seeds 0, 3 and 7: ``qr`` on
product, two-term and dense amplitude states of 15–17 edges, and float
enumeration on four graphs of 12–17 edges.  Each job's exact value adds,
over the states that ``helpers.bfs_is_connected`` accepts, the exact Born
weights of the parsed state's float parts (``helpers.born_exact``) or the
exact Bernoulli weights of the float probabilities
(``helpers.bernoulli_exact``).  The printed float must lie within
``helpers.error_bound`` of it, which needs the roundings of each weight:

- a Born weight ``re * re + im * im``: three;
- a Bernoulli weight: one per factor ``1 - p`` and one per product of the
  ``|E|`` factors, so at most ``2 |E|``;

then one per addition of the connected states' weights to 0.0.  The bound
assumes that no value underflows, which the test checks.

``ULPS`` records how far each job's printed value is from its exact value,
in units in the last place of the printed float; a change of bits then
shows whether accuracy rose or fell.
"""

import contextlib
import functools
import io
import json
import math
from fractions import Fraction
from itertools import compress
from pathlib import Path

import pytest

from qrelnet import Graph
from qrelnet.cli import main
from qrelnet.serialize import parse_graph, parse_probability_list, parse_state

from helpers import bernoulli_exact, bfs_is_connected, born_exact, error_bound, ulps
from test_job_goldens import SEEDS, build_fixtures

QR_JOBS = ("grid3x4.product", "k6.two_term", "ladder2x6.two_term", "ladder2x6.amplitudes", "k6.amplitudes")
ENUM_GRAPHS = ("grid3x3", "k6", "k5multi", "grid3x4")
ULPS = {
    "0/qr.grid3x4.product": 21.45,
    "0/qr.k6.two_term": 0.13,
    "0/qr.ladder2x6.two_term": 0.0,
    "0/qr.ladder2x6.amplitudes": 3.91,
    "0/qr.k6.amplitudes": 65.78,
    "3/qr.grid3x4.product": 11.31,
    "3/qr.k6.two_term": 0.7,
    "3/qr.ladder2x6.two_term": 0.0,
    "3/qr.ladder2x6.amplitudes": 8.64,
    "3/qr.k6.amplitudes": 78.85,
    "7/qr.grid3x4.product": 5.73,
    "7/qr.k6.two_term": 0.01,
    "7/qr.ladder2x6.two_term": 0.0,
    "7/qr.ladder2x6.amplitudes": 3.86,
    "7/qr.k6.amplitudes": 55.4,
    "0/reliability.grid3x3.enum.float": 3.23,
    "0/reliability.k6.enum.float": 6.07,
    "0/reliability.k5multi.enum.float": 33.63,
    "0/reliability.grid3x4.enum.float": 10.02,
    "3/reliability.grid3x3.enum.float": 4.17,
    "3/reliability.k6.enum.float": 38.51,
    "3/reliability.k5multi.enum.float": 0.83,
    "3/reliability.grid3x4.enum.float": 9.04,
    "7/reliability.grid3x3.enum.float": 2.59,
    "7/reliability.k6.enum.float": 108.49,
    "7/reliability.k5multi.enum.float": 5.68,
    "7/reliability.grid3x4.enum.float": 0.73,
}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    directory = tmp_path_factory.mktemp("jobs")
    return directory, build_fixtures(directory, ("quantum_states", "classical_exact"))


@functools.cache
def connected(g: Graph) -> tuple[bool, ...]:
    return tuple(bfs_is_connected(g, s) for s in range(1 << g.num_edges))


def printed(argv) -> float:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())["value"]


def check(key: str, value: float, weights: list[int], den: int, flags, roundings: int) -> None:
    """``value`` is within the bound of the flagged ``weights`` over ``den``; its ulp error is ``ULPS[key]``."""
    values = list(compress(weights, flags))
    exact = Fraction(sum(values), den)
    # error_bound is homogeneous, so the bound of the numerators over den is the bound of the weights.
    assert abs(Fraction(value) - exact) <= error_bound(values, [roundings] * len(values)) / den
    assert ulps(value, exact) == ULPS[key]


def job_argv(built, workload: str, seed: int, job_id: str, monkeypatch) -> list[str]:
    """The job's argv, in its work directory, with ``QRELNET_MAX_EDGES`` unset."""
    directory, jobs = built
    monkeypatch.delenv("QRELNET_MAX_EDGES", raising=False)
    monkeypatch.chdir(directory / workload / str(seed))
    [(_, *argv)] = [job for job in jobs[f"{workload}/{seed}"] if job[0] == job_id]
    return argv


def option(argv, name: str):
    value = argv[argv.index(name) + 1]
    return json.loads(Path(value).read_text()) if value.endswith(".json") else value


@pytest.mark.parametrize("job", QR_JOBS)
@pytest.mark.parametrize("seed", SEEDS)
def test_qr_prints_within_the_a_priori_bound(built, seed, job, monkeypatch):
    argv = job_argv(built, "quantum_states", seed, f"qr.{job}", monkeypatch)
    g = parse_graph(option(argv, "--graph"))
    psi = parse_state(option(argv, "--state"), g)
    # No value underflows: each nonzero part squares to a normal float.
    assert all(abs(x) > 2.0 ** -500 for a in psi.amplitudes.tolist() for x in (a.real, a.imag) if x)
    weights, den = born_exact(psi)
    check(f"{seed}/qr.{job}", printed(argv), weights, den, connected(g), 3)


@pytest.mark.parametrize("graph", ENUM_GRAPHS)
@pytest.mark.parametrize("seed", SEEDS)
def test_float_enum_prints_within_the_a_priori_bound(built, seed, graph, monkeypatch):
    argv = job_argv(built, "classical_exact", seed, f"reliability.{graph}.enum.float", monkeypatch)
    g = parse_graph(option(argv, "--graph"))
    probs = parse_probability_list(option(argv, "--p"), exact=False)
    # No value underflows: each state's weight multiplies to a normal float.
    assert math.prod(min(x for x in (p, 1 - p) if x) for p in probs) > 2.0 ** -1000
    weights, den = bernoulli_exact(probs)
    check(f"{seed}/reliability.{graph}.enum.float", printed(argv), weights, den, connected(g),
          2 * g.num_edges)
