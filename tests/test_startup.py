"""Start-up contract of the CLI process, each check in a fresh interpreter.

``import qrelnet`` loads nothing; the CLI pins OpenBLAS to one thread unless
the user chose a count, each subcommand loads only the modules it runs,
and no output byte depends on the BLAS thread count.  Without numpy run
``reliability`` by factoring, ``matrix`` and ``split-verify`` at every
size, and ``reliability`` by enumeration, ``qr``, ``hybrid`` and
``sublayer`` while every side has at most 16 edges.  No subcommand imports
``dataclasses``.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrelnet

SRC = str(Path(qrelnet.__file__).resolve().parents[1])
BLAS_ENV = "OPENBLAS_NUM_THREADS"


def run_fresh(code: str, **env) -> str:
    """Last stdout line of ``code`` run by a new interpreter, with ``BLAS_ENV`` unset."""
    base = {k: v for k, v in os.environ.items() if k != BLAS_ENV}
    proc = subprocess.run([sys.executable, "-c", code], env={**base, "PYTHONPATH": SRC, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded_after(argv) -> set:
    """qrelnet submodules loaded once ``main(argv)`` has run."""
    code = ("import json, sys\n"
            "from qrelnet.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('qrelnet.'))))")
    return {name.split(".")[1] for name in json.loads(run_fresh(code))}


def test_importing_the_package_loads_no_numpy_and_leaves_blas_alone():
    code = f"import os, sys, qrelnet; print('numpy' in sys.modules, os.environ.get({BLAS_ENV!r}))"
    assert run_fresh(code) == "False None"


def test_the_cli_pins_one_blas_thread_unless_the_user_chose():
    code = f"import os; from qrelnet.cli import main; print(os.environ[{BLAS_ENV!r}])"
    assert run_fresh(code) == "1"
    assert run_fresh(code, **{BLAS_ENV: "3"}) == "3"


def test_matrix_loads_no_graph_state_or_operator_module():
    loaded = loaded_after(["matrix", "--m", "1"])
    assert loaded == {"cli", "errors", "partitions", "serialize"}


def test_a_usage_error_loads_no_numpy():
    code = ("import json, sys\n"
            "from qrelnet.cli import main\n"
            "assert main(['bogus']) == 2\n"
            "print(json.dumps(['numpy' in sys.modules,\n"
            "                  sorted(m for m in sys.modules if m.startswith('qrelnet.'))]))")
    numpy_loaded, loaded = json.loads(run_fresh(code))
    assert not numpy_loaded
    assert {name.split(".")[1] for name in loaded} == {"cli", "errors", "serialize"}


def test_reliability_loads_no_quantum_module(tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]}))
    loaded = loaded_after(["reliability", "--graph", str(graph), "--p", "0.5,0.5"])
    assert "classical" in loaded
    assert not loaded & {"states", "operators", "hybrid"}


def numpy_loaded_after(argv) -> bool:
    """Whether numpy is loaded once ``main(argv)`` has run."""
    code = ("import json, sys\n"
            "from qrelnet.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(json.dumps('numpy' in sys.modules))")
    return json.loads(run_fresh(code))


@pytest.mark.parametrize("method, exact, num_edges, loads_numpy",
                         [("factor", False, 3, False), ("factor", True, 3, False), ("enum", False, 3, False),
                          ("enum", True, 3, False), ("enum", False, 16, False), ("enum", False, 17, True)])
def test_reliability_loads_numpy_only_to_enumerate(tmp_path, method, exact, num_edges, loads_numpy):
    # The factor route runs on the per-state compile, and so does enumeration
    # while its 2^|E| states fit one chunk of 2^16; past that it walks arrays.
    names = [f"v{i}" for i in range(num_edges)]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": names, "edges": [[v, names[i - 1]] for i, v in enumerate(names)]}))
    probs = ("1/2", "1/3", "1/4") if exact else ("0.5", "0.25", "0.75")
    argv = ["reliability", "--graph", str(graph), "--p", ",".join(probs[i % 3] for i in range(num_edges)),
            "--method", method] + ["--exact"] * exact
    assert numpy_loaded_after(argv) is loads_numpy


@pytest.mark.parametrize("m", [1, 6, 7])
def test_matrix_loads_no_numpy(m):
    assert numpy_loaded_after(["matrix", "--m", str(m)]) is False


@pytest.mark.parametrize("num_shared, num_edges", [(3, 16), (3, 17), (3, 24), (6, 16), (7, 16)])
def test_split_verify_loads_no_numpy(tmp_path, num_shared, num_edges):
    # Each side is a ring through the shared vertices and one of its own,
    # with chords once the ring is full; k takes half the edges, h the rest.
    shared = [f"s{i}" for i in range(num_shared)]
    for name, count in (("k", num_edges // 2), ("h", num_edges - num_edges // 2)):
        ring = shared + [name]
        edges = [[ring[i % len(ring)], ring[(i + 1 + i // len(ring)) % len(ring)]] for i in range(count)]
        (tmp_path / f"{name}.json").write_text(json.dumps({"vertices": ring, "edges": edges}))
    argv = ["split-verify", "--k", str(tmp_path / "k.json"), "--h", str(tmp_path / "h.json"),
            "--shared", ",".join(shared)]
    assert numpy_loaded_after(argv) is False
    assert not loaded_after(argv) & {"states", "hybrid"}


def _ring_graph(num_edges: int) -> dict:
    names = [f"v{i}" for i in range(max(num_edges, 2))]
    return {"vertices": names, "edges": [[v, names[i - 1]] for i, v in enumerate(names[:num_edges])]}


@pytest.mark.parametrize("form, num_edges, loads_numpy",
                         [("product", 3, False), ("product", 16, False), ("two_term", 16, False),
                          ("amplitudes", 16, False), ("product", 17, True), ("amplitudes", 17, True)])
def test_qr_loads_numpy_only_past_16_edges(tmp_path, form, num_edges, loads_numpy):
    states = {
        "product": {"type": "product", "qubits": [{"p": 0.5, "phase": [0.6, 0.8]}] * num_edges},
        "two_term": {"type": "two_term", "zeta": "1" * num_edges, "chi": "0" * num_edges, "p": 0.5,
                     "phase": [0.6, -0.8]},
        "amplitudes": {"type": "amplitudes", "values": [[0.0, 0.0]] * ((1 << num_edges) - 1) + [[0.6, 0.8]]},
    }
    graph, state = tmp_path / "g.json", tmp_path / "s.json"
    graph.write_text(json.dumps(_ring_graph(num_edges)))
    state.write_text(json.dumps(states[form]))
    argv = ["qr", "--graph", str(graph), "--state", str(state)]
    assert numpy_loaded_after(argv) is loads_numpy
    assert not loaded_after(argv) & {"hybrid"}


def _write_sublayer(tmp_path, num_quantum: int, num_classical: int) -> tuple[str, str]:
    """Quantum edges among three shared vertices, classical ones around them and one more vertex."""
    shared = ["a", "b", "c"]
    ring = shared + ["d"]
    edges = [{"endpoints": [shared[i % 3], shared[(i + 1) % 3]], "kind": "quantum"} for i in range(num_quantum)]
    edges += [{"endpoints": [ring[i % 4], ring[(i + 1) % 4]], "kind": "classical"} for i in range(num_classical)]
    graph, state = tmp_path / "g.json", tmp_path / "s.json"
    graph.write_text(json.dumps({"vertices": ring, "edges": edges}))
    state.write_text(json.dumps({
        "quantum": {"type": "product", "qubits": [{"p": 0.5, "phase": [0.6, 0.8]}] * num_quantum},
        "classical": [0.5] * num_classical,
    }))
    return str(graph), str(state)


@pytest.mark.parametrize("command", ["hybrid", "sublayer"])
@pytest.mark.parametrize("num_quantum, num_classical, loads_numpy",
                         [(4, 12, False), (16, 8, False), (4, 16, False), (17, 4, True), (4, 17, True)])
def test_hybrid_and_sublayer_load_numpy_only_for_a_side_past_16_edges(tmp_path, command, num_quantum,
                                                                       num_classical, loads_numpy):
    graph, state = _write_sublayer(tmp_path, num_quantum, num_classical)
    assert numpy_loaded_after([command, "--graph", graph, "--state", state]) is loads_numpy


def test_no_subcommand_imports_dataclasses(tmp_path):
    graph, state = _write_sublayer(tmp_path, 4, 12)
    code = ("import sys\n"
            "from qrelnet.cli import main\n"
            "assert main(['matrix', '--m', '3']) == 0\n"
            f"assert main(['sublayer', '--graph', {graph!r}, '--state', {state!r}]) == 0\n"
            "print('dataclasses' in sys.modules, 'inspect' in sys.modules)")
    assert run_fresh(code) == "False False"


def test_the_hybrid_module_and_the_tagged_graph_parser_load_no_numpy():
    code = ("import sys, qrelnet.hybrid\n"
            "print('numpy' in sys.modules, 'qrelnet.states' in sys.modules)")
    assert run_fresh(code) == "False False"
    code = ("import sys\n"
            "from qrelnet.serialize import parse_tagged_graph\n"
            "parse_tagged_graph({'vertices': ['a', 'b'], 'edges': [{'endpoints': ['a', 'b'], 'kind': 'quantum'}]})\n"
            "print('numpy' in sys.modules, 'qrelnet.states' in sys.modules)")
    assert run_fresh(code) == "False False"


def test_the_graph_partition_and_classical_modules_import_no_numpy():
    code = "import sys, qrelnet.graphs, qrelnet.partitions, qrelnet.classical; print('numpy' in sys.modules)"
    assert run_fresh(code) == "False"


def test_the_operator_module_imports_no_numpy_and_no_state_module():
    code = "import sys, qrelnet.operators; print('numpy' in sys.modules, 'qrelnet.states' in sys.modules)"
    assert run_fresh(code) == "False False"


def test_qr_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 17 edges, 2^17 amplitudes: a multi-threaded BLAS splits a dot product
    # this long into per-thread partial sums.
    name = lambda r, c: f"v{r}{c}"
    edges = [[name(r, c), name(r, c + 1)] for r in range(3) for c in range(3)]
    edges += [[name(r, c), name(r + 1, c)] for r in range(2) for c in range(4)]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": sorted({v for e in edges for v in e}), "edges": edges}))
    rng = random.Random(0)
    states = [str(tmp_path / f"s{i}.json") for i in range(6)]
    for path in states:
        Path(path).write_text(json.dumps({"type": "product", "qubits": [{"p": rng.random()} for _ in edges]}))
    code = ("import contextlib, io, json\n"
            "from qrelnet.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            f"    for state in {states!r}:\n"
            f"        assert main(['qr', '--graph', {str(graph)!r}, '--state', state]) == 0\n"
            "print(json.dumps(out.getvalue()))")
    assert run_fresh(code, **{BLAS_ENV: "1"}) == run_fresh(code, **{BLAS_ENV: "2"})


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        return "openblas"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
@pytest.mark.skipif("openblas" not in _blas_name(), reason="the pin is OpenBLAS's variable")
def test_the_cli_process_runs_one_thread(tmp_path):
    # ``sample`` draws with numpy's generator, so it loads numpy at every size.
    graph, state = tmp_path / "g.json", tmp_path / "s.json"
    graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    state.write_text(json.dumps({"type": "product", "qubits": [{"p": 0.5}]}))
    code = ("import os, sys\n"
            "from qrelnet.cli import main\n"
            f"assert main(['sample', '--graph', {str(graph)!r}, '--state', {str(state)!r}, '-n', '10']) == 0\n"
            "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))")
    assert run_fresh(code) == "True 1"


def test_python_m_runs_the_cli_from_a_checkout(tmp_path):
    # The route the README gives for a checkout with no install: PYTHONPATH
    # alone, run from elsewhere, so nothing but the source tree supplies qrelnet.
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "qrelnet.cli", *argv], env={**os.environ, "PYTHONPATH": SRC},
                              cwd=tmp_path, capture_output=True, text=True, timeout=120)

    ok = run("matrix", "--m", "2")
    assert (ok.returncode, ok.stderr) == (0, "")
    assert ok.stdout == ('{"alpha":[[1,1],[1,0]],"beta":[["0","1"],["1","-1"]],"m":2,'
                         '"order":[[["1","2"]],[["1"],["2"]]],"schema":"qrelnet/1"}\n')
    bad = run("bogus")
    assert (bad.returncode, bad.stdout, len(bad.stderr.splitlines())) == (2, "", 1)
    assert json.loads(bad.stderr)["error"]["code"] == "usage"
