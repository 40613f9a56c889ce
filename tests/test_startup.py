"""Start-up contract of the CLI process, each check in a fresh interpreter.

``import qrelnet`` loads nothing; the CLI pins OpenBLAS to one thread unless
the user chose a count, and each subcommand loads only the modules it runs.
"""

import json
import os
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


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        return "openblas"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
@pytest.mark.skipif("openblas" not in _blas_name(), reason="the pin is OpenBLAS's variable")
def test_the_cli_process_runs_one_thread():
    code = ("import os\n"
            "from qrelnet.cli import main\n"
            "assert main(['matrix', '--m', '4']) == 0\n"
            "print(len(os.listdir('/proc/self/task')))")
    assert run_fresh(code) == "1"
