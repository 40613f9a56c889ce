"""Property-based fuzzing of ``qrelnet reliability``, run in process.

Any drawn graph JSON and ``--p`` text must either succeed, printing one
canonical JSON line, or be rejected with exit 2: empty stdout and a single
JSON error on stderr.  A traceback, an ``internal`` error or exit 1 fails.
Both methods run on every input and must agree.
"""

import json
import math
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

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
