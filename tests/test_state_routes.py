"""Quantum values in real arithmetic, on the list route and on the array route.

Every complex product is ``(ac - bd, ad + bc)`` and every Born weight
``re * re + im * im``, one rounding per operation, and sums run strictly in
state order.  So:

- ``qr``, ``sample``, ``hybrid`` and ``sublayer`` print the same bytes
  whatever SIMD loops numpy dispatches to, checked in fresh processes with
  every ``__cpu_dispatch__`` entry disabled;
- ``probabilities()`` and ``product_state`` equal a per-entry Python-float
  oracle bit for bit;
- a state holds its Born weights once, ``weights``: a tuple of floats on
  the list route, a read-only float64 array on the array route, and
  ``probabilities()`` is a new writable copy of them;
- a state of at most ``graphs.LIST_EDGES`` edges, built and weighed in
  Python lists, prints what the array route prints, on both sides of the
  gate, and a state that is not normalized fails with the same message on
  both.
"""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrelnet
from qrelnet import Graph, QubitSpec, StateVector, WidthMismatchError, graphs, product_state, states
from qrelnet.cli import main
from qrelnet.graphs import LIST_EDGES
from qrelnet.operators import quantum_reliability

from helpers import born_oracle, edge_state_to_text, kron_outer_oracle, product_amplitudes_oracle, random_state

SRC = str(Path(qrelnet.__file__).resolve().parents[1])


def _phase(rng) -> list[float]:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return [math.cos(theta), math.sin(theta)]


def _grid_graph(num_edges: int) -> dict:
    """The first ``num_edges`` edges of the 3x4 grid (17 edges), rows first: all 12 vertices stay touched."""
    name = lambda r, c: f"v{r}{c}"
    edges = [[name(r, c), name(r, c + 1)] for r in range(3) for c in range(3)]
    edges += [[name(r, c), name(r + 1, c)] for r in range(2) for c in range(4)]
    edges = edges[:num_edges]
    return {"vertices": sorted({v for e in edges for v in e}), "edges": edges}


def _state(rng, form: str, num_edges: int, scale: float = 1.0) -> dict:
    """A state of one wire form with general complex phases."""
    if form == "product":
        return {"type": "product", "qubits": [{"p": rng.random(), "phase": _phase(rng)} for _ in range(num_edges)]}
    if form == "two_term":
        zeta, chi = rng.sample(range(1 << num_edges), 2)
        return {"type": "two_term", "zeta": edge_state_to_text(zeta, num_edges),
                "chi": edge_state_to_text(chi, num_edges), "p": rng.random(), "phase": _phase(rng)}
    values = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(1 << num_edges)]
    norm = math.sqrt(math.fsum(re * re + im * im for re, im in values)) / scale
    return {"type": "amplitudes", "values": [[re / norm, im / norm] for re, im in values]}


def _tagged_graph(rng, num_quantum: int, num_classical: int) -> dict:
    """A sublayer: quantum edges among four shared vertices, classical edges through them and one more."""
    shared = ["s0", "s1", "s2", "s3"]
    path = shared + ["c0"]
    quantum = [rng.sample(shared, 2) for _ in range(num_quantum)]
    classical = [[a, b] for a, b in zip(path, path[1:])]
    classical += [rng.sample(path, 2) for _ in range(num_classical - len(classical))]
    edges = [{"endpoints": e, "kind": "quantum"} for e in quantum]
    edges += [{"endpoints": e, "kind": "classical"} for e in classical]
    return {"vertices": path, "edges": edges}


def _hybrid_state(rng, form: str, num_quantum: int, num_classical: int, scale: float = 1.0) -> dict:
    return {"quantum": _state(rng, form, num_quantum, scale), "classical": [rng.random() for _ in range(num_classical)]}


def _write(directory: Path, name: str, obj) -> str:
    path = directory / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


ALL_FORMS = ("product", "two_term", "amplitudes")
# A dense 17-edge state costs seconds to write, parse and weigh on both routes.
SPARSE_FORMS = ("product", "two_term")


def _cases(directory: Path, seed: int, qr_sizes, split_sizes, forms, split_forms=None,
           commands=("hybrid", "sublayer"), scale: float = 1.0) -> list[list[str]]:
    """CLI argument lists over derandomized inputs written to ``directory``."""
    rng = random.Random(seed)
    cases = []
    for n in qr_sizes:
        graph = _write(directory, f"g{n}.json", _grid_graph(n))
        for form in forms:
            state = _write(directory, f"g{n}.{form}.json", _state(rng, form, n, scale))
            cases.append(["qr", "--graph", graph, "--state", state])
    for nq, nc in split_sizes:
        graph = _write(directory, f"t{nq}.{nc}.json", _tagged_graph(rng, nq, nc))
        for form in split_forms or forms:
            state = _write(directory, f"t{nq}.{nc}.{form}.json", _hybrid_state(rng, form, nq, nc, scale))
            cases += [[command, "--graph", graph, "--state", state] for command in commands]
    return cases


# --------------------------------------------------------------- SIMD dispatch

def _run_fresh(code: str, **env) -> str:
    base = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    proc = subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": SRC, **env},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_printed_values_do_not_depend_on_the_simd_dispatch(tmp_path):
    # Sides of 16 edges take the list route, of 17 the array route.
    cases = _cases(tmp_path, 25, (16, 17), ((16, 6), (17, 6)), ALL_FORMS, SPARSE_FORMS)
    for n in (16, 17):
        cases.append(["sample", "--graph", str(tmp_path / f"g{n}.json"),
                      "--state", str(tmp_path / f"g{n}.product.json"), "-n", "20000", "--seed", "5"])
    dispatch = _run_fresh("import json, numpy as np\n"
                          "try:\n"
                          "    from numpy._core._multiarray_umath import __cpu_dispatch__\n"
                          "except ImportError:  # numpy 1\n"
                          "    from numpy.core._multiarray_umath import __cpu_dispatch__\n"
                          "print(json.dumps(sorted(__cpu_dispatch__)))")
    code = ("import contextlib, io, json\n"
            "from qrelnet.cli import main\n"
            "outputs = []\n"
            f"for argv in {cases!r}:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        outputs.append([main(argv), out.getvalue(), err.getvalue()])\n"
            "print(json.dumps(outputs))")
    default = json.loads(_run_fresh(code))
    assert [result[0] for result in default] == [0] * len(cases)
    disabled = json.loads(_run_fresh(code, NPY_DISABLE_CPU_FEATURES=" ".join(json.loads(dispatch))))
    assert disabled == default


# --------------------------------------------------------------- Python-float oracle

def _bits(values) -> list[int]:
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def _assert_form(psi, lists: bool) -> None:
    """``psi.weights`` is a tuple of floats if ``lists``, else a read-only float64 array."""
    if lists:
        assert type(psi.weights) is tuple and all(type(w) is float for w in psi.weights)
    else:
        assert isinstance(psi.weights, np.ndarray) and psi.weights.dtype == np.float64
        assert not psi.weights.flags.writeable


def _take(monkeypatch, route: str) -> None:
    """Send every state, and every side of a split, down the named route, whatever its size."""
    monkeypatch.setattr(graphs, "LIST_EDGES", states.MAX_EDGES if route == "lists" else -1)


@pytest.fixture(params=["lists", "arrays"])
def route(request, monkeypatch):
    _take(monkeypatch, request.param)
    return request.param


def test_product_state_and_its_born_weights_round_once_per_operation(route):
    rng = random.Random(31)
    for n in (1, 2, 5, 9):
        specs = [QubitSpec(rng.random(), complex(*_phase(rng))) for _ in range(n)]
        specs[0] = QubitSpec(specs[0].p)  # the default phase, 1
        psi = product_state(specs)
        _assert_form(psi, route == "lists")
        oracle = product_amplitudes_oracle(specs)
        assert _bits(psi.amplitudes.real) == _bits([re for re, _ in oracle])
        assert _bits(psi.amplitudes.imag) == _bits([im for _, im in oracle])
        assert _bits(psi.probabilities()) == _bits(born_oracle(complex(*z) for z in oracle))
        assert _bits(psi.weights) == _bits(psi.probabilities())


def test_probabilities_round_once_per_operation(route):
    for n, seed in ((0, 1), (3, 2), (10, 3)):
        psi = StateVector(n, random_state(n, seed).amplitudes)
        assert _bits(psi.probabilities()) == _bits(born_oracle(psi.amplitudes.tolist()))


def test_weights_are_read_only_and_probabilities_a_new_writable_copy(route):
    for n, seed in ((0, 4), (3, 5), (10, 6)):
        psi = StateVector(n, random_state(n, seed).amplitudes)
        _assert_form(psi, route == "lists")
        before = _bits(psi.weights)
        g = Graph(("a",), (("a", "a"),) * n)
        value = quantum_reliability(g, psi)
        error, message = (TypeError, "item assignment") if route == "lists" else (ValueError, "read-only")
        with pytest.raises(error, match=message):
            psi.weights[0] = 0.5
        assert quantum_reliability(g, psi) == value
        with pytest.raises(AttributeError, match="cannot assign"):
            psi.weights = [1.0] * (1 << n)
        probs = psi.probabilities()
        assert probs.dtype == np.float64 and probs.flags.writeable
        assert probs is not psi.weights and _bits(probs) == before
        probs[:] = 0.25
        assert _bits(psi.weights) == before == _bits(psi.probabilities())


def test_array_tensor_products_have_the_bits_of_whole_outer_products():
    # Many blocks of rows, one row per block, blocks of one column, and a
    # one-entry factor on either side.
    rng = np.random.default_rng(7)
    for na, nb in ((1 << 10, 1 << 8), (2, 1 << 17), (1 << 17, 1), (1, 1 << 5), (4, 2)):
        a = rng.standard_normal(na), rng.standard_normal(na)
        b = rng.standard_normal(nb), rng.standard_normal(nb)
        assert [_bits(x) for x in states._kron(a, b, False)] == [_bits(x) for x in kron_outer_oracle(a, b)]


# --------------------------------------------------------------- list route against array route

def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _both_routes(monkeypatch, cases) -> list:
    results = {}
    for route in ("lists", "arrays"):
        _take(monkeypatch, route)
        results[route] = [_run(argv) for argv in cases]
    assert results["lists"] == results["arrays"]
    return results["lists"]


@pytest.mark.parametrize("num_edges", [15, 16, 17])
def test_qr_prints_the_same_bytes_on_both_routes(tmp_path, monkeypatch, num_edges):
    cases = _cases(tmp_path, num_edges, (num_edges,), (), ALL_FORMS)
    assert [code for code, _, _ in _both_routes(monkeypatch, cases)] == [0, 0, 0]


@pytest.mark.parametrize("sizes", [(15, 4), (16, 4), (17, 4), (4, 15), (4, 16), (4, 17)],
                         ids=lambda s: f"quantum{s[0]}-classical{s[1]}")
def test_hybrid_and_sublayer_print_the_same_bytes_on_both_routes(tmp_path, monkeypatch, sizes):
    forms = SPARSE_FORMS if sizes[0] > LIST_EDGES else ALL_FORMS
    cases = _cases(tmp_path, sum(sizes), (), (sizes,), forms)
    assert [code for code, _, _ in _both_routes(monkeypatch, cases)] == [0] * len(cases)


@pytest.mark.parametrize("num_edges", [16, 17])
def test_a_state_off_the_norm_fails_with_one_message_on_both_routes(tmp_path, monkeypatch, num_edges):
    split_sizes = ((num_edges, 4),) if num_edges <= LIST_EDGES else ()
    cases = _cases(tmp_path, 7, (num_edges,), split_sizes, ("amplitudes",), commands=("hybrid",), scale=1 + 1e-7)
    results = _both_routes(monkeypatch, cases)
    for code, out, err in results:
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["code"] == "not_normalized"


def test_the_gate_is_list_edges(tmp_path):
    for n in (LIST_EDGES, LIST_EDGES + 1):
        rng = random.Random(n)
        psi = product_state(QubitSpec(rng.random(), complex(*_phase(rng))) for _ in range(n))
        _assert_form(psi, n <= LIST_EDGES)


def test_quantum_reliability_rejects_a_state_of_another_width(route):
    g = Graph(("a", "b"), (("a", "b"), ("a", "b")))
    psi = product_state([QubitSpec(0.5)] * 3)
    _assert_form(psi, route == "lists")
    with pytest.raises(WidthMismatchError, match="state spans 3 edges, graph has 2"):
        quantum_reliability(g, psi)
