"""Tests of the benchmark's own inputs and oracles.

    python3 -m pytest perfbench/test_fixtures.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

import fixtures
import oracles


@pytest.mark.parametrize("workload", fixtures.WORKLOADS)
def test_same_seed_gives_identical_files(workload):
    with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
        fixtures.build(workload, 7).write(Path(a))
        fixtures.build(workload, 7).write(Path(b))
        names = sorted(p.name for p in Path(a).iterdir())
        assert names == sorted(p.name for p in Path(b).iterdir())
        for name in names:
            assert (Path(a) / name).read_bytes() == (Path(b) / name).read_bytes(), name


def _edge_counts(fx):
    counts = {}
    for name, data in fx.files.items():
        doc = json.loads(data)
        if "edges" in doc:
            counts[name] = len(doc["edges"])
        elif doc.get("type") == "amplitudes":
            counts[name] = len(doc["values"])
        elif doc.get("type") == "product":
            counts[name] = len(doc["qubits"])
        elif "classical" in doc:
            counts[name] = len(doc["classical"])
    return counts


@pytest.mark.parametrize("workload", fixtures.WORKLOADS)
def test_other_seed_keeps_the_work(workload):
    one, two = fixtures.build(workload, 1), fixtures.build(workload, 2)
    inputs = lambda fx: (fx.files, [j.argv for j in fx.jobs])
    assert inputs(one) != inputs(two)
    assert _edge_counts(one) == _edge_counts(two)
    shape = lambda fx: [(j.id, j.command, j.check[0]) for j in fx.jobs]
    assert shape(one) == shape(two)
    # Flags stay, and so does the length of every comma-separated list.
    args = lambda fx: [[a if a.startswith("-") else a.count(",") for a in j.argv] for j in fx.jobs]
    assert args(one) == args(two)


def test_reachability_table_matches_per_state_bfs():
    rng = np.random.default_rng(5)
    for _ in range(20):
        nv = int(rng.integers(1, 6))
        vertices = [f"v{i}" for i in range(nv)]
        edges = [(vertices[rng.integers(nv)], vertices[rng.integers(nv)]) for _ in range(rng.integers(0, 8))]
        table = oracles.connected_table(vertices, edges)
        assert [bool(x) for x in table] == [oracles.connected(vertices, edges, s) for s in range(1 << len(edges))]


def test_checks_reject_wrong_answers():
    job = fixtures.Job("qr.x", "qr", (), ("value", 0.5))
    ok = {"qr.x": (0, b'{"value":0.5}', b"")}
    assert oracles.check_outputs([job], ok) == {}
    for bad in ((0, b'{"value":0.6}', b""), (0, b'{"value":0.5}', b"warning"), (2, b"", b"")):
        assert "qr.x" in oracles.check_outputs([job], {"qr.x": bad})


def test_matrix_check_needs_the_exact_inverse():
    doc = {"m": 2, "order": [[["1", "2"]], [["1"], ["2"]]], "alpha": [[1, 1], [1, 0]],
           "beta": [["0", "1"], ["1", "-1"]]}
    assert oracles._matrix_error(doc, 2) is None
    doc["beta"][1][1] = "-1/2"
    assert oracles._matrix_error(doc, 2) is not None
