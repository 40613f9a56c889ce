"""Every benchmark job's exit code, stdout and stderr, pinned at three seeds.

The jobs and their input files are those of ``perfbench/fixtures.py``, built
at seeds 0, 3 and 7; each job runs in process through ``cli.main``, with
``QRELNET_MAX_EDGES`` unset, and must print what ``tests/job_goldens.json``
holds.  An output of at most 4 KB is stored in full, so a failing diff shows
the digits that moved; a longer one as its sha256 and its length.

The fixtures normalize their dense amplitudes with ``np.linalg.norm``, whose
last bits follow the BLAS thread count, so they are built in a child process
under one OpenBLAS thread: the inputs are then the same in every
environment, and only the outputs are under test.

Re-record by hand, and only for a byte change that ``CHANGES.md`` lists:

    PYTHONPATH=src python tests/test_job_goldens.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = Path(__file__).with_name("job_goldens.json")
SEEDS = (0, 3, 7)
WORKLOADS = ("quantum_states", "classical_exact", "lattice_split")
FULL_BYTES = 4096

# Run in perfbench/, whose modules import each other as top-level modules.
BUILD = """
import json, sys
from pathlib import Path
import fixtures
jobs = {}
for key in json.loads(sys.argv[2]):
    workload, seed = key.split("/")
    directory = Path(sys.argv[1], workload, seed)
    directory.mkdir(parents=True)
    fx = fixtures.build(workload, int(seed))
    fx.write(directory)
    jobs[key] = [[job.id, job.command, *job.argv] for job in fx.jobs]
print(json.dumps(jobs))
"""


def build_fixtures(directory: Path, workloads=WORKLOADS) -> dict:
    """Write each workload's inputs at every seed under ``directory/<workload>/<seed>``.

    Returns ``{"<workload>/<seed>": [[job id, *argv], ...]}``.
    """
    keys = [f"{workload}/{seed}" for workload in workloads for seed in SEEDS]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", BUILD, str(directory), json.dumps(keys)], cwd=ROOT / "perfbench",
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _stored(text: str):
    data = text.encode()
    if len(data) <= FULL_BYTES:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run_jobs(jobs, directory: Path) -> dict:
    """``{job id: {"code", "stdout", "stderr"}}`` of ``[job id, *argv]`` jobs, each run in ``directory``."""
    from qrelnet.cli import main

    results = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for job_id, *argv in jobs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            results[job_id] = {"code": code, "stdout": _stored(out.getvalue()), "stderr": _stored(err.getvalue())}
    finally:
        os.chdir(cwd)
    return results


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    directory = tmp_path_factory.mktemp("jobs")
    return directory, build_fixtures(directory)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_job_prints_its_golden_bytes(workload, seed, built, monkeypatch):
    monkeypatch.delenv("QRELNET_MAX_EDGES", raising=False)
    directory, jobs = built
    key = f"{workload}/{seed}"
    expected = json.loads(GOLDENS.read_text(encoding="utf-8"))[key]
    actual = run_jobs(jobs[key], directory / workload / str(seed))
    assert list(actual) == list(expected)
    for job_id, result in actual.items():
        assert result == expected[job_id], job_id


def record() -> None:
    import tempfile

    os.environ.pop("QRELNET_MAX_EDGES", None)
    with tempfile.TemporaryDirectory() as directory:
        jobs = build_fixtures(Path(directory))
        goldens = {key: run_jobs(jobs[key], Path(directory, key)) for key in jobs}
    GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: PYTHONPATH=src python {sys.argv[0]} --record")
    record()
