"""Property-based fuzzing of every ``qrelnet`` subcommand, in process.

Any drawn input must either succeed, printing one canonical JSON line, or be
rejected with exit 2: empty stdout and a single JSON error on stderr.  A
traceback, an ``internal`` error or exit 1 fails.  Both reliability methods
run on every input and must agree, and every accepted split must be exact.
Input files take damage at two levels: in the decoded object (a bool, a
ragged pair, a huge or overlong integer, any JSON value in place of any
entry) and in the file itself (deep nesting, bytes that are not UTF-8, a
cut-off text).
"""

import json
import math
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from qrelnet.serialize import dumps_canonical

from test_cli import run_cli

NAMES = st.sampled_from(["a", "b", "c", "d", "e", "\u00e9", ""])
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda kids: st.lists(kids, max_size=3)
                           | st.dictionaries(st.text(max_size=3), kids, max_size=3), max_leaves=6)

DIGITS = st.integers(0, 10 ** 6).map(str)
# Probabilities in [0, 1] in every text form the parsers accept.
GOOD_PIECES = st.one_of(
    st.floats(0, 1).map(repr),
    st.integers(1, 10 ** 6).flatmap(lambda d: st.integers(0, d).map(lambda n: f"{n}/{d}")),
    st.builds(lambda b: f"0.{b}", DIGITS),
    st.sampled_from(["0", "1", "-0", "1.0", " 1/2 ", "1e-3", "5E-1"]),
)
BAD_PIECES = st.one_of(
    st.builds(lambda n, d: f"{n}/{d}", DIGITS, DIGITS),
    st.builds(lambda m, e: f"{m}e{e}", st.sampled_from(["1", "0.5", "-2", "3"]), st.integers(-10 ** 9, 10 ** 9)),
    st.sampled_from(["nan", "inf", "-inf", "1/0", " ", "", "0x1", "\u00bd", "1_0", "-1", "2", "1e400"]),
    st.text(max_size=6),
)


@st.composite
def graphs(draw):
    """Mostly well-formed multigraphs (loops, parallel edges, strays), some broken."""
    vertices = draw(st.lists(NAMES, unique=True, max_size=5))
    ends = st.lists(st.sampled_from(vertices), min_size=2, max_size=2)
    edges = draw(st.lists(ends, max_size=8)) if vertices else []
    graph = {"vertices": vertices, "edges": edges}
    flaw = draw(st.sampled_from(["none"] * 6 + ["vertex", "edge", "key", "value"]))
    if flaw == "vertex":
        graph["vertices"] = vertices + [draw(NAMES | JSON_VALUES)]
    elif flaw == "edge":
        graph["edges"] = edges + [draw(st.lists(NAMES, min_size=2, max_size=2) | JSON_VALUES)]
    elif flaw == "key":
        del graph[draw(st.sampled_from(sorted(graph)))]
    elif flaw == "value":
        graph = draw(JSON_VALUES)
    return graph


@st.composite
def probability_texts(draw, num_edges: int):
    """One piece per edge most of the time, occasionally a bad or extra piece."""
    count = num_edges if draw(st.integers(0, 9)) else draw(st.integers(0, 9))
    pieces = [draw(GOOD_PIECES) for _ in range(count)]
    if pieces and not draw(st.integers(0, 4)):
        pieces[draw(st.integers(0, len(pieces) - 1))] = draw(BAD_PIECES)
    text = ",".join(pieces)
    return text if draw(st.integers(0, 19)) else draw(st.text(max_size=12))


def _check_rejected(out: str, err: str) -> None:
    assert out == ""
    payload = json.loads(err)
    assert set(payload) == {"error", "schema"}
    assert payload["error"]["code"] != "internal"
    assert err.endswith("\n") and err.count("\n") == 1


def _value(out: str, exact: bool):
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert set(payload) == {"schema", "value"}
    return Fraction(payload["value"]) if exact else payload["value"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), exact=st.booleans())
def test_reliability_fuzz(data, exact):
    graph = data.draw(graphs())
    edges = graph.get("edges") if isinstance(graph, dict) else None
    p_text = data.draw(probability_texts(len(edges) if isinstance(edges, list) else 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(graph, fh)
        argv = ["reliability", "--graph", path, "--p", p_text] + (["--exact"] if exact else [])
        results = [run_cli(*argv, "--method", method) for method in ("enum", "factor")]
    (code_e, out_e, err_e), (code_f, out_f, err_f) = results
    assert code_e == code_f
    assert code_e in (0, 2)
    if code_e == 2:
        _check_rejected(out_e, err_e)
        assert err_e == err_f
        return
    assert err_e == err_f == ""
    enum, factor = _value(out_e, exact), _value(out_f, exact)
    if exact:
        assert enum == factor and 0 <= enum <= 1
    else:
        assert math.isclose(enum, factor, rel_tol=0, abs_tol=1e-12)
        assert -1e-12 <= enum <= 1 + 1e-12


@st.composite
def split_inputs(draw):
    """Two graphs glued on a shared set, and a ``--shared`` text that may not name it.

    The text may repeat names, name vertices in neither graph, leave some
    shared vertex out, be empty, or list more than seven names; either graph
    may also be malformed or overlap the other on an undeclared vertex.
    """
    shared = [f"s{i}" for i in range(draw(st.sampled_from([0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 7, 8])))]
    sides = []
    for side in "kh":
        vertices = shared + [f"{side}{i}" for i in range(draw(st.integers(0, 2)))]
        if draw(st.integers(0, 9)) == 0:
            vertices.append("common")
        ends = st.lists(st.sampled_from(vertices), min_size=2, max_size=2)
        edges = draw(st.lists(ends, max_size=6)) if vertices else []
        graph = {"vertices": vertices, "edges": edges}
        sides.append(draw(graphs()) if draw(st.integers(0, 9)) == 0 else graph)
    names = list(shared)
    flaw = draw(st.sampled_from(["none"] * 4 + ["repeat", "stranger", "drop", "empty", "shuffle"]))
    if flaw == "repeat" and names:
        names += draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    elif flaw == "stranger":
        names.append(draw(st.sampled_from(["z", "k0", "h0", "common", "s9"])))
    elif flaw == "drop" and names:
        names.remove(draw(st.sampled_from(names)))
    elif flaw == "empty":
        names = []
    elif flaw == "shuffle":
        names = draw(st.permutations(names))
    return sides, draw(st.sampled_from([",", " , ", ",,"])).join(names)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inputs=split_inputs())
def test_split_verify_fuzz(inputs):
    (k, h), shared = inputs
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, graph in (("k.json", k), ("h.json", h)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w", encoding="utf-8") as fh:
                json.dump(graph, fh)
        code, out, err = run_cli("split-verify", "--k", paths[0], "--h", paths[1], "--shared", shared)
    assert code in (0, 2)
    if code == 2:
        _check_rejected(out, err)
        return
    assert (out, err) == ('{"equal":true,"schema":"qrelnet/1"}\n', "")


# Stands in the decoded object for an integer literal of 5,000 digits, which
# ``json.dumps`` itself refuses to write; the file text gets the literal.
LONG_INTEGER = "<long integer>"
BAD_ENTRIES = st.one_of(
    st.booleans(),
    st.lists(st.floats(-1, 1), max_size=3),
    st.sampled_from([LONG_INTEGER, 10 ** 400, -(2 ** 1024), 2 ** 63 + 1, -0.0, math.nan, math.inf, "0.5", None]),
    JSON_VALUES,
)


def _slots(obj):
    """Every ``(container, key)`` position inside a decoded JSON value."""
    if isinstance(obj, dict):
        items = list(obj.items())
    elif isinstance(obj, list):
        items = list(enumerate(obj))
    else:
        return
    for key, value in items:
        yield obj, key
        yield from _slots(value)


@st.composite
def damaged_file(draw, obj):
    """File bytes for ``obj``, often intact, otherwise damaged in the object or the text."""
    if draw(st.integers(0, 3)) == 0:
        slots = list(_slots(obj))
        if slots:
            container, key = draw(st.sampled_from(slots))
            container[key] = draw(BAD_ENTRIES)
        else:
            obj = draw(BAD_ENTRIES)
    text = json.dumps(obj).replace(json.dumps(LONG_INTEGER), "1" * 5000)
    damage = draw(st.sampled_from(["none"] * 6 + ["nest", "bytes", "cut"]))
    if damage == "nest":
        depth = draw(st.sampled_from([3, 5000, 100_000]))
        text = "[" * depth + text + "]" * depth
    elif damage == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    data = text.encode("utf-8")
    if damage == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xff\xfe", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


@st.composite
def state_objects(draw, num_edges: int):
    """A product, two-term or amplitude state, usually one qubit per edge."""
    width = num_edges if draw(st.integers(0, 9)) else draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["product", "two_term", "amplitudes"]))
    if kind == "product":
        qubits = []
        for _ in range(width):
            qubit = {"p": draw(st.floats(0, 1) | st.sampled_from([0, 1]))}
            if draw(st.booleans()):
                t = draw(st.floats(0, 2 * math.pi))
                qubit["phase"] = [math.cos(t), math.sin(t)]
            qubits.append(qubit)
        return {"type": "product", "qubits": qubits}
    if kind == "two_term":
        zeta = draw(st.text("01", min_size=width, max_size=width))
        chi = zeta
        if width and draw(st.integers(0, 9)):
            at = draw(st.integers(0, width - 1))
            chi = zeta[:at] + "10"[int(zeta[at])] + zeta[at + 1:]
        return {"type": "two_term", "zeta": zeta, "chi": chi, "p": draw(st.floats(0, 1))}
    size = 1 << width
    if draw(st.booleans()):
        # A basis state written with integers and signed zeros.
        values = [[0, -0.0] for _ in range(size)]
        values[draw(st.integers(0, size - 1))] = draw(st.sampled_from([[1, 0], [0, -1], [-1, 0.0]]))
    else:
        raw = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=size, max_size=size))
        norm = math.sqrt(sum(a * a + b * b for a, b in raw)) or 1.0
        values = [[a / norm, b / norm] for a, b in raw]
    return {"type": "amplitudes", "values": values}


def _write(tmp: str, name: str, data: bytes) -> str:
    path = os.path.join(tmp, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


def _outcome(result):
    """The payload of an accepted run, or ``None`` for a clean rejection."""
    code, out, err = result
    assert code in (0, 2)
    if code == 2:
        _check_rejected(out, err)
        return None
    assert err == ""
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert dumps_canonical(payload) + "\n" == out
    return payload


@st.composite
def connected_graphs(draw):
    """Well-formed multigraphs with at least one edge, for the state-driven commands."""
    vertices = draw(st.lists(NAMES, unique=True, min_size=1, max_size=5))
    ends = st.lists(st.sampled_from(vertices), min_size=2, max_size=2)
    return {"vertices": vertices, "edges": draw(st.lists(ends, min_size=1, max_size=6))}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_qr_and_sample_fuzz(data):
    graph = data.draw(graphs() if data.draw(st.integers(0, 4)) == 0 else connected_graphs())
    edges = graph.get("edges") if isinstance(graph, dict) else None
    state = data.draw(state_objects(len(edges) if isinstance(edges, list) else 1))
    graph_bytes = data.draw(damaged_file(graph)) if data.draw(st.integers(0, 4)) == 0 else json.dumps(graph).encode()
    state_bytes = data.draw(damaged_file(state))
    n = data.draw(st.integers(1, 500))
    seed = data.draw(st.integers(0, 2 ** 32))
    with tempfile.TemporaryDirectory() as tmp:
        g, s = _write(tmp, "g.json", graph_bytes), _write(tmp, "s.json", state_bytes)
        qr = _outcome(run_cli("qr", "--graph", g, "--state", s))
        sample = _outcome(run_cli("sample", "--graph", g, "--state", s, "-n", str(n), "--seed", str(seed)))
    assert (qr is None) == (sample is None)
    if qr is not None:
        assert -1e-9 <= qr["value"] <= 1 + 1e-9
        assert sample["n"] == n and sample["seed"] == seed and 0 <= sample["estimate"] <= 1


@st.composite
def hybrid_inputs(draw):
    """A tagged graph and a hybrid state over its quantum and classical edges."""
    vertices = draw(st.lists(NAMES, unique=True, min_size=1, max_size=5))
    edge = st.fixed_dictionaries({
        "endpoints": st.lists(st.sampled_from(vertices), min_size=2, max_size=2),
        "kind": st.sampled_from(["quantum", "classical"]),
    })
    edges = draw(st.lists(edge, max_size=7))
    graph = {"vertices": vertices, "edges": edges}
    num_quantum = sum(e["kind"] == "quantum" for e in edges)
    num_classical = len(edges) - num_quantum if draw(st.integers(0, 9)) else draw(st.integers(0, 3))
    state = {
        "quantum": draw(state_objects(num_quantum)),
        "classical": draw(st.lists(st.floats(0, 1), min_size=num_classical, max_size=num_classical)),
    }
    graph_bytes = draw(damaged_file(graph)) if draw(st.integers(0, 4)) == 0 else json.dumps(graph).encode()
    return graph_bytes, draw(damaged_file(state))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inputs=hybrid_inputs())
def test_hybrid_and_sublayer_fuzz(inputs):
    graph_bytes, state_bytes = inputs
    with tempfile.TemporaryDirectory() as tmp:
        g, s = _write(tmp, "g.json", graph_bytes), _write(tmp, "s.json", state_bytes)
        hybrid = _outcome(run_cli("hybrid", "--graph", g, "--state", s))
        sublayer = _outcome(run_cli("sublayer", "--graph", g, "--state", s))
    if hybrid is not None:
        assert -1e-9 <= hybrid["value"] <= 1 + 1e-9
    if hybrid is not None and sublayer is not None:
        assert math.isclose(sublayer["total"], hybrid["value"], rel_tol=0, abs_tol=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(m=st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["8", str(10 ** 30), "3.0", "", " 3"]),
                   st.text(max_size=3)),
       paper_order=st.booleans())
def test_matrix_fuzz(m, paper_order):
    payload = _outcome(run_cli("matrix", "--m", m, *(["--paper-order"] if paper_order else [])))
    if payload is not None:
        assert payload["m"] == int(m) and len(payload["alpha"]) == len(payload["order"])
