"""Wire formats: canonical JSON bytes, rational strings, input parsing."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrelnet import Graph, QrelnetError, WidthMismatchError, canonical_decomposition
from qrelnet.serialize import (
    _amplitude_parts,
    dumps_canonical,
    parse_graph,
    parse_hybrid_state,
    parse_probability_list,
    parse_state,
    parse_tagged_graph,
    rational_text,
)

from helpers import amplitudes_oracle, dumps_canonical_oracle


def test_dumps_sorts_keys_and_formats_floats():
    assert dumps_canonical({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    assert dumps_canonical(1.0) == "1.0"
    assert dumps_canonical(0.25) == "0.25"
    assert dumps_canonical([True, False, None]) == "[true,false,null]"
    assert dumps_canonical({"x": [1, 2.5, "s"]}) == '{"x":[1,2.5,"s"]}'


def test_dumps_floats_round_trip():
    values = [1 / 3, 0.1, 1e-17, 123456.789, 2 ** 52 + 0.5, 1e22]
    for x in values + [-y for y in values]:
        assert float(dumps_canonical(x)) == x


def test_dumps_is_deterministic():
    payload = {"z": [0.1, 0.2], "a": {"k": 1.0, "b": "t"}}
    assert dumps_canonical(payload) == dumps_canonical(json.loads(dumps_canonical(payload)))


def _json_dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# Without floats, json.dumps with sorted keys and no spaces is the canonical
# writer's oracle: both escape strings to ASCII the same way.
TEXT = st.text(max_size=6)
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | TEXT | st.lists(st.integers())
               | st.lists(TEXT) | st.lists(st.integers() | st.booleans()))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(TEXT, inner),
    max_leaves=20,
)


def test_dumps_writes_homogeneous_lists_like_json():
    for value in ([], (), [[], ()], [1, 2, -3], (1, 2), [True, 1], [1, False], [True, False],
                  ["a", "é", "日本", " ", '"\\'], ("x",), ["a", 1], [10 ** 40, -1],
                  {"k": [["1", "2"], [3, 4]]}):
        assert dumps_canonical(value) == _json_dumps(value), value


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(value=JSON_VALUES)
def test_dumps_matches_json_without_floats(value):
    assert dumps_canonical(value) == _json_dumps(value)


# With floats, the emitting tree walk the writer replaced is the oracle.
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0])
JSON_VALUES_WITH_FLOATS = st.recursive(
    JSON_LEAVES | FLOATS | st.lists(FLOATS) | st.lists(FLOATS | st.integers()),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(value=JSON_VALUES_WITH_FLOATS)
def test_dumps_matches_the_emitting_writer(value):
    assert dumps_canonical(value) == dumps_canonical_oracle(value)


@pytest.mark.parametrize("value, message", [
    ({1: "a"}, "JSON object keys must be strings"),
    ({"a": [1, {2: 0}]}, "JSON object keys must be strings"),
    ([1, {1, 2}], "cannot serialize set"),
    ({"a": Fraction(1, 2)}, "cannot serialize Fraction"),
])
def test_dumps_rejects_what_json_cannot_hold(value, message):
    with pytest.raises(QrelnetError, match=message) as info:
        dumps_canonical(value)
    assert info.value.code == "invalid_input"


def test_dumps_rejects_non_finite():
    with pytest.raises(QrelnetError):
        dumps_canonical(float("nan"))
    with pytest.raises(QrelnetError):
        dumps_canonical({"x": float("inf")})


def test_rational_text():
    assert rational_text(Fraction(1, 2)) == "1/2"
    assert rational_text(Fraction(-3, 2)) == "-3/2"
    assert rational_text(Fraction(4, 2)) == "2"
    assert rational_text(0) == "0"


def test_parse_graph_round_trip():
    obj = {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]}
    g = parse_graph(obj)
    assert g == Graph(("a", "b"), (("a", "b"), ("a", "b")))


def test_parse_graph_rejects_malformed():
    with pytest.raises(QrelnetError):
        parse_graph(["not", "a", "graph"])
    with pytest.raises(QrelnetError):
        parse_graph({"vertices": ["a"]})
    with pytest.raises(QrelnetError):
        parse_graph({"vertices": ["a", "b"], "edges": [["a"]]})
    with pytest.raises(QrelnetError):
        parse_graph({"vertices": ["a", "b"], "edges": [["a", "b", "c"]]})


def test_parse_tagged_graph():
    obj = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"endpoints": ["a", "b"], "kind": "quantum"},
            {"endpoints": ["b", "c"], "kind": "classical"},
        ],
    }
    g, kinds = parse_tagged_graph(obj)
    assert g.edges == (("a", "b"), ("b", "c"))
    assert kinds == ["quantum", "classical"]
    d = canonical_decomposition(g, kinds)
    assert d.shared == ("b",)


def test_parse_tagged_graph_rejects_untagged():
    obj = {"vertices": ["a", "b"], "edges": [["a", "b"]]}
    with pytest.raises(QrelnetError):
        parse_tagged_graph(obj)
    obj = {"vertices": ["a", "b"], "edges": [{"endpoints": ["a", "b"], "kind": "optical"}]}
    with pytest.raises(QrelnetError):
        parse_tagged_graph(obj)


def graph2():
    return Graph(("a", "b"), (("a", "b"), ("a", "b")))


def test_parse_state_product():
    psi = parse_state({"type": "product", "qubits": [{"p": 1.0}, {"p": 1.0}]}, graph2())
    assert np.allclose(psi.amplitudes, [0, 0, 0, 1])
    psi = parse_state({"type": "product", "qubits": [{"p": 0.25, "phase": [0, 1]}, {"p": 1.0}]}, graph2())
    assert abs(psi.amplitudes[0b10] - 1j * math.sqrt(0.75)) <= 1e-15


def test_parse_state_two_term_uses_text_convention():
    psi = parse_state({"type": "two_term", "zeta": "10", "chi": "01", "p": 1.0}, graph2())
    # "10" means edge 0 active only, which is index 1.
    assert np.allclose(psi.amplitudes, [0, 1, 0, 0])


def test_parse_state_amplitudes():
    s = 1 / math.sqrt(2)
    psi = parse_state({"type": "amplitudes", "values": [[s, 0], [0, s], [0, 0], [0, 0]]}, graph2())
    assert abs(psi.amplitudes[1] - s * 1j) <= 1e-15


def test_parse_state_errors():
    with pytest.raises(WidthMismatchError):
        parse_state({"type": "product", "qubits": [{"p": 0.5}]}, graph2())
    with pytest.raises(WidthMismatchError):
        parse_state({"type": "two_term", "zeta": "1", "chi": "0", "p": 0.5}, graph2())
    with pytest.raises(WidthMismatchError):
        parse_state({"type": "amplitudes", "values": [[1, 0]]}, graph2())
    with pytest.raises(QrelnetError):
        parse_state({"type": "mystery"}, graph2())
    with pytest.raises(QrelnetError):
        parse_state({"type": "amplitudes", "values": [[1, 0], [0, 0], [0, 0], "x"]}, graph2())


def test_parse_hybrid_state():
    g = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    d = canonical_decomposition(g, ["quantum", "classical"])
    state = parse_hybrid_state({"quantum": {"type": "product", "qubits": [{"p": 0.5}]}, "classical": [0.25]}, d)
    assert state.classical == (0.25,)
    with pytest.raises(WidthMismatchError):
        parse_hybrid_state({"quantum": {"type": "product", "qubits": [{"p": 0.5}]}, "classical": []}, d)


def test_parse_probability_list():
    assert parse_probability_list("0.5, 0.25", exact=False) == [0.5, 0.25]
    assert parse_probability_list("1/2,3/4", exact=True) == [Fraction(1, 2), Fraction(3, 4)]
    assert parse_probability_list("0.5", exact=True) == [Fraction(1, 2)]
    assert parse_probability_list("", exact=False) == []
    with pytest.raises(QrelnetError):
        parse_probability_list("x", exact=False)
    with pytest.raises(QrelnetError):
        parse_probability_list("1/0", exact=True)


def _parse_amplitudes(values):
    """The parser's flat parts as a float64 array: the layout of the oracle's complex128 entries."""
    return np.array(_amplitude_parts(values), dtype=np.float64)


def _decoded(decode, values):
    """Bits of the decoded amplitudes, or the (code, message) of the rejection."""
    try:
        return decode(values).view(np.uint64).tolist()
    except QrelnetError as exc:
        return exc.code, str(exc)


PARTS = st.one_of(
    st.floats(),
    st.integers(),
    st.sampled_from([-0.0, 0.0, 2 ** 53 + 1, 2 ** 63 + 1, -(2 ** 64 + 1), 10 ** 300, 10 ** 400,
                     2 ** 1024 - 2 ** 970 - 1, 2 ** 1024 - 2 ** 970]),
)
ENTRIES = st.one_of(
    st.lists(PARTS, min_size=2, max_size=2),
    st.lists(PARTS, max_size=3),
    st.sampled_from([True, False, None, "1", [True, 0], [0, False], [1.0, "0"], [[1], 0], {"re": 1}]),
)


def test_amplitudes_keep_the_per_entry_bits():
    cases = [
        [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1, 0]],
        [[1, 2], [-3, 0], [0, -7], [2 ** 53 + 1, 2 ** 63 + 1]],
        [[10 ** 300, -(10 ** 300)], [0.5, 1], [-(2 ** 63 + 1), 2 ** 53 + 1], [1e-320, -5e-324]],
    ]
    for values in cases:
        decoded = _decoded(_parse_amplitudes, values)
        assert decoded == _decoded(amplitudes_oracle, values)
        assert isinstance(decoded, list)
    psi = parse_state({"type": "amplitudes", "values": [[0, -0.0], [-1, 0.0]]}, Graph(("a", "b"), (("a", "b"),)))
    assert psi.amplitudes.view(np.uint64).tolist() == amplitudes_oracle([[0, -0.0], [-1, 0.0]]).view(np.uint64).tolist()


def test_amplitude_errors_keep_the_per_entry_code_and_message():
    for bad in ([10 ** 400, 0], [0, -(2 ** 1024)], [True, 0], [0, None], [1.0], [1, 2, 3], "x", None):
        values = [[1, 0], [0, 0], bad, [0, 0]]
        decoded = _decoded(_parse_amplitudes, values)
        assert decoded == _decoded(amplitudes_oracle, values)
        assert decoded[0] == "invalid_state"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(ENTRIES, min_size=1, max_size=6))
def test_amplitude_decoding_matches_the_per_entry_oracle(values):
    assert _decoded(_parse_amplitudes, values) == _decoded(amplitudes_oracle, values)
