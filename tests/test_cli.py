"""End-to-end CLI checks: byte-stable stdout, JSON errors on stderr, exit codes."""

import contextlib
import hashlib
import io
import json
import math

import pytest

from qrelnet.cli import main

TRIANGLE = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}


def run_cli(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_reliability_single_edge(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    code, out, err = run_cli("reliability", "--graph", g, "--p", "0.25")
    assert (code, err) == (0, "")
    assert out == '{"schema":"qrelnet/1","value":0.25}\n'


def test_reliability_exact_and_methods_agree(tmp_path):
    g = write_json(tmp_path, "g.json", TRIANGLE)
    code, out, _ = run_cli("reliability", "--graph", g, "--p", "1/2,1/2,1/2", "--exact")
    assert code == 0
    assert out == '{"schema":"qrelnet/1","value":"1/2"}\n'
    code, out_enum, _ = run_cli("reliability", "--graph", g, "--p", "0.5,0.5,0.5")
    assert code == 0
    code, out_factor, _ = run_cli(
        "reliability", "--graph", g, "--p", "0.5,0.5,0.5", "--method", "factor"
    )
    assert code == 0
    assert out_enum == out_factor == '{"schema":"qrelnet/1","value":0.5}\n'


def test_qr_swapped_pair_is_certain(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]})
    s = write_json(tmp_path, "s.json", {"type": "two_term", "zeta": "10", "chi": "01", "p": 0.3})
    code, out, err = run_cli("qr", "--graph", g, "--state", s)
    assert (code, err) == (0, "")
    assert out == '{"schema":"qrelnet/1","value":1.0}\n'


def test_matrix_three_vertex_reference_tables():
    code, out, err = run_cli("matrix", "--m", "3", "--paper-order")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["schema"] == "qrelnet/1"
    assert payload["m"] == 3
    assert payload["order"] == [
        [["1"], ["2"], ["3"]],
        [["1"], ["2", "3"]],
        [["1", "3"], ["2"]],
        [["1", "2"], ["3"]],
        [["1", "2", "3"]],
    ]
    assert payload["alpha"] == [
        [0, 0, 0, 0, 1],
        [0, 0, 1, 1, 1],
        [0, 1, 0, 1, 1],
        [0, 1, 1, 0, 1],
        [1, 1, 1, 1, 1],
    ]
    assert payload["beta"] == [
        ["1/2", "-1/2", "-1/2", "-1/2", "1"],
        ["-1/2", "-1/2", "1/2", "1/2", "0"],
        ["-1/2", "1/2", "-1/2", "1/2", "0"],
        ["-1/2", "1/2", "1/2", "-1/2", "0"],
        ["1", "0", "0", "0", "0"],
    ]


def test_matrix_canonical_orders_match_library():
    code, out, _ = run_cli("matrix", "--m", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == [[["1", "2"]], [["1"], ["2"]]]
    assert payload["alpha"] == [[1, 1], [1, 0]]
    assert payload["beta"] == [["0", "1"], ["1", "-1"]]


# SHA-256 of the stdout of `matrix --m N`, and of `--m 3 --paper-order`.  The
# output holds only integers and rationals, so the bytes are platform-free.
MATRIX_SHA256 = {
    ("1",): "cfa6f48c657e2b7daffca516496d7c0841bc7d19e119f258b969e55d56bc63f8",
    ("2",): "7a1fc3668cd6fed11d4336bc9ab172d185d30aa86857d606d305e7513e7610da",
    ("3",): "b4284cca5c8844d4d404ca50df06982f0d7b70c7176c8215718a58dc63e3f26c",
    ("4",): "6cf3cd398982d6e046979d8db34b8502f45f3567fb8e74c7bf2e4300e834e9ab",
    ("5",): "3411f25e84a5f8fb6d037d146499e9e58d6734bfd8f00bfebf27e21439f457c3",
    ("6",): "5c8529cba1fd328883be865f7e6d2555f4d09a35c6a0b9add3eb940255fc88e2",
    ("7",): "a33c97a8bc0ebafb7604404a8db454ebe38bcdfb3f52ec6a0482f59bec293aeb",
    ("3", "--paper-order"): "8bbe71fbb154086b6381cc8a68f5a350e1998dc74b41d85fa999df86c0f4c784",
}


@pytest.mark.parametrize("args", sorted(MATRIX_SHA256), ids="_".join)
def test_matrix_stdout_bytes_are_golden(args):
    code, out, err = run_cli("matrix", "--m", *args)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MATRIX_SHA256[args]


def test_split_verify(tmp_path):
    k = write_json(tmp_path, "k.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    h = write_json(tmp_path, "h.json", {"vertices": ["a", "b", "c"], "edges": [["a", "c"], ["c", "b"]]})
    code, out, err = run_cli("split-verify", "--k", k, "--h", h, "--shared", "a,b")
    assert (code, err) == (0, "")
    assert out == '{"equal":true,"schema":"qrelnet/1"}\n'


def tagged_pair(tmp_path, p, r):
    g = write_json(tmp_path, "g.json", {
        "vertices": ["a", "b"],
        "edges": [
            {"endpoints": ["a", "b"], "kind": "quantum"},
            {"endpoints": ["a", "b"], "kind": "classical"},
        ],
    })
    s = write_json(tmp_path, "s.json", {
        "quantum": {"type": "product", "qubits": [{"p": p}]},
        "classical": [r],
    })
    return g, s


def test_hybrid_parallel_pair(tmp_path):
    g, s = tagged_pair(tmp_path, 0.5, 0.25)
    code, out, err = run_cli("hybrid", "--graph", g, "--state", s)
    assert (code, err) == (0, "")
    # Either wire works: 1 - (1 - p)(1 - r).
    assert abs(json.loads(out)["value"] - 0.625) <= 1e-12
    assert run_cli("hybrid", "--graph", g, "--state", s) == (code, out, err)


def test_sublayer_parallel_pair(tmp_path):
    g, s = tagged_pair(tmp_path, 0.5, 0.25)
    code, out, err = run_cli("sublayer", "--graph", g, "--state", s)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["classical"] == 0.25
    assert abs(payload["total"] - 0.625) <= 1e-12
    # Reported term values already carry their rational weights.
    assert abs(sum(t["value"] for t in payload["corrections"]) - 0.375) <= 1e-12
    for term in payload["corrections"]:
        assert term["gamma"] != [["a", "b"]]
        assert term["beta"] in {"1", "-1"}


def test_sample_is_byte_deterministic(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]})
    s = write_json(tmp_path, "s.json", {"type": "product", "qubits": [{"p": 0.6}, {"p": 0.7}]})
    first = run_cli("sample", "--graph", g, "--state", s, "-n", "2000", "--seed", "7")
    second = run_cli("sample", "--graph", g, "--state", s, "-n", "2000", "--seed", "7")
    assert first == second
    code, out, err = first
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["n"] == 2000 and payload["seed"] == 7
    assert 0 <= payload["estimate"] <= 1
    assert payload["stderr"] >= 0


def test_output_is_reparsable_canonical_json(tmp_path):
    g = write_json(tmp_path, "g.json", TRIANGLE)
    code, out, _ = run_cli("reliability", "--graph", g, "--p", "0.9,0.8,0.7")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"schema", "value"}
    # Canonical form survives a decode/encode cycle.
    from qrelnet.serialize import dumps_canonical

    assert dumps_canonical(payload) + "\n" == out


def test_malformed_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli("reliability", "--graph", str(path), "--p", "0.5")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "malformed_json"


def test_unreadable_file(tmp_path):
    code, out, err = run_cli("reliability", "--graph", str(tmp_path / "missing.json"), "--p", "0.5")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "unreadable_file"


def test_usage_errors():
    code, out, err = run_cli("reliability")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "usage"
    code, _, err = run_cli("matrix", "--m", "4", "--paper-order")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"
    code, _, err = run_cli("matrix", "--m", "0")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"


def test_width_mismatch(tmp_path):
    g = write_json(tmp_path, "g.json", TRIANGLE)
    code, _, err = run_cli("reliability", "--graph", g, "--p", "0.5,0.5")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "width_mismatch"
    s = write_json(tmp_path, "s.json", {"type": "product", "qubits": [{"p": 0.5}]})
    code, _, err = run_cli("qr", "--graph", g, "--state", s)
    assert code == 2
    assert json.loads(err)["error"]["code"] == "width_mismatch"


def test_env_cap_restricts_edges(tmp_path, monkeypatch):
    g = write_json(tmp_path, "g.json", TRIANGLE)
    monkeypatch.setenv("QRELNET_MAX_EDGES", "2")
    code, out, err = run_cli("reliability", "--graph", g, "--p", "0.5,0.5,0.5")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == "capacity"
    monkeypatch.setenv("QRELNET_MAX_EDGES", "nope")
    code, _, err = run_cli("reliability", "--graph", g, "--p", "0.5,0.5,0.5")
    assert code == 2
    assert json.loads(err)["error"]["code"] == "usage"
    monkeypatch.delenv("QRELNET_MAX_EDGES")
    code, _, _ = run_cli("reliability", "--graph", g, "--p", "0.5,0.5,0.5")
    assert code == 0


def test_not_normalized_state(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    s = write_json(tmp_path, "s.json", {"type": "amplitudes", "values": [[1, 0], [1, 0]]})
    code, _, err = run_cli("qr", "--graph", g, "--state", s)
    assert code == 2
    assert json.loads(err)["error"]["code"] == "not_normalized"


def _assert_rejected(result, code_name):
    code, out, err = result
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["code"] == code_name


def test_non_finite_amplitudes_and_phases_are_rejected(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    states = (
        {"type": "amplitudes", "values": [[math.nan, 0], [1, 0]]},
        {"type": "product", "qubits": [{"p": 0.5, "phase": [math.nan, 0]}]},
        {"type": "two_term", "zeta": "1", "chi": "0", "p": 0.5, "phase": [0, math.nan]},
    )
    for i, state in enumerate(states):
        s = write_json(tmp_path, f"s{i}.json", state)
        _assert_rejected(run_cli("qr", "--graph", g, "--state", s), "invalid_state")
        _assert_rejected(run_cli("sample", "--graph", g, "--state", s, "-n", "10"), "invalid_state")


def test_huge_json_integers_are_input_errors(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    huge = 10 ** 400
    s = write_json(tmp_path, "p.json", {"type": "product", "qubits": [{"p": huge}]})
    _assert_rejected(run_cli("qr", "--graph", g, "--state", s), "invalid_probability")
    s = write_json(tmp_path, "c.json", {"type": "amplitudes", "values": [[huge, 0], [0, 0]]})
    _assert_rejected(run_cli("qr", "--graph", g, "--state", s), "invalid_state")


def test_unserializable_payload_is_a_json_error(tmp_path, monkeypatch):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    s = write_json(tmp_path, "s.json", {"type": "product", "qubits": [{"p": 0.5}]})
    monkeypatch.setattr("qrelnet.operators.qr_value", lambda op, psi: math.inf)
    _assert_rejected(run_cli("qr", "--graph", g, "--state", s), "invalid_input")


def test_matrix_huge_m_is_a_capacity_error_before_any_allocation():
    _assert_rejected(run_cli("matrix", "--m", str(10 ** 30)), "capacity")
    code, out, err = run_cli("matrix", "--m", "8")
    assert (code, out) == (2, "")
    assert err == ('{"error":{"code":"capacity","message":"connectivity matrix needs between 1 '
                   'and 7 elements, got 8"},"schema":"qrelnet/1"}\n')


def test_sample_count_beyond_an_index_is_a_capacity_error(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    s = write_json(tmp_path, "s.json", {"type": "product", "qubits": [{"p": 0.5}]})
    _assert_rejected(run_cli("sample", "--graph", g, "--state", s, "-n", str(10 ** 30)), "capacity")


def test_negative_sample_seed_is_an_input_error(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    s = write_json(tmp_path, "s.json", {"type": "product", "qubits": [{"p": 0.5}]})
    _assert_rejected(run_cli("sample", "--graph", g, "--state", s, "-n", "10", "--seed", "-1"), "invalid_input")


def test_memory_error_is_a_capacity_error(tmp_path, monkeypatch):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    s = write_json(tmp_path, "s.json", {"type": "product", "qubits": [{"p": 0.5}]})

    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("qrelnet.operators.born_sample", exhausted)
    _assert_rejected(run_cli("sample", "--graph", g, "--state", s, "-n", "10"), "capacity")


def test_exact_probability_exponents_are_capped(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    code, out, err = run_cli("reliability", "--graph", g, "--p", "1e-4299", "--exact")
    assert (code, err) == (0, "")
    assert out == '{"schema":"qrelnet/1","value":"1/1' + "0" * 4299 + '"}\n'
    # Expanding this exponent would take minutes; it is refused at once.
    _assert_rejected(run_cli("reliability", "--graph", g, "--p", "1e-99999999", "--exact"), "invalid_probability")


def test_exact_value_too_long_to_print_is_a_capacity_error(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]})
    _assert_rejected(run_cli("reliability", "--graph", g, "--p", "1e-2200,1e-2200", "--exact"), "capacity")


def test_damaged_json_files_are_input_errors(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    long_int = tmp_path / "long.json"
    long_int.write_text('{"type": "product", "qubits": [{"p": ' + "1" * 5000 + "}]}", encoding="utf-8")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    not_utf8 = tmp_path / "bytes.json"
    not_utf8.write_bytes(b'\xff\xfe{"type": "product"}')
    for path, code_name in ((long_int, "capacity"), (deep, "malformed_json"), (not_utf8, "malformed_json")):
        _assert_rejected(run_cli("qr", "--graph", g, "--state", str(path)), code_name)
        _assert_rejected(run_cli("reliability", "--graph", str(path), "--p", "0.5"), code_name)


def test_recursion_outside_the_input_stays_internal(tmp_path, monkeypatch):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    s = write_json(tmp_path, "s.json", {"type": "product", "qubits": [{"p": 0.5}]})

    def runaway(*args):
        raise RecursionError

    monkeypatch.setattr("qrelnet.operators.qr_value", runaway)
    code, out, err = run_cli("qr", "--graph", g, "--state", s)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {"code": "internal", "message": "recursion limit hit"}


def test_exact_probability_too_long_to_print_is_an_input_error(tmp_path):
    g = write_json(tmp_path, "g.json", {"vertices": ["a", "b"], "edges": [["a", "b"]]})
    for p in ("--p=1e4300", "--p=-1e4300", "--p=12e4299"):
        _assert_rejected(run_cli("reliability", "--graph", g, p, "--exact"), "invalid_probability")
    code, out, err = run_cli("reliability", "--graph", g, "--p", "3/2", "--exact")
    assert (code, out) == (2, "")
    assert err == ('{"error":{"code":"invalid_probability","message":"edge probability 3/2 outside '
                   '[0, 1]"},"schema":"qrelnet/1"}\n')
