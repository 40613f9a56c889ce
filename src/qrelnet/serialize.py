"""Wire formats: parsing of JSON inputs and byte-deterministic JSON output.

Output never goes through ``json.dumps``: strings are escaped by the
``json`` module's ASCII encoder, keys are emitted sorted, floats as
17-significant-digit shortest-round-trip text with a guaranteed decimal
point, so identical inputs yield identical bytes on any platform.
Rationals are rendered as ``"p/q"`` strings (or a bare integer string when
the denominator is one).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .errors import CapacityError, QrelnetError, WidthMismatchError

# The parsers import the modules of the objects they build, so writing
# output loads none of them.
if TYPE_CHECKING:
    from .graphs import Graph
    from .hybrid import Decomposition, HybridState
    from .partitions import Partition
    from .states import StateVector

SCHEMA = "qrelnet/1"


def _float_text(x: float) -> str:
    if not math.isfinite(x):
        raise QrelnetError(f"cannot serialize non-finite float {x!r}", code="invalid_input")
    s = format(x, ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _text(value) -> str:
    # Containers first: most calls are lists or objects.  A list of exact
    # strs or exact ints (no bools), the bulk of a large output such as a
    # connectivity matrix, is one join with no dispatch per item.
    if isinstance(value, (list, tuple)):
        kinds = set(map(type, value))
        item_text = encode_basestring_ascii if kinds == {str} else str if kinds == {int} else _text
        return f"[{','.join(map(item_text, value))}]"
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise QrelnetError("JSON object keys must be strings", code="invalid_input")
        items = ",".join([f"{encode_basestring_ascii(key)}:{_text(value[key])}" for key in sorted(value)])
        return f"{{{items}}}"
    if value is None or value is True or value is False:
        return "null" if value is None else ("true" if value else "false")
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _float_text(value)
    raise QrelnetError(f"cannot serialize {type(value).__name__}", code="invalid_input")


def dumps_canonical(value) -> str:
    """Serialize to canonical JSON: sorted keys, stable float text, no spaces."""
    # The recursion stays in ``_text``: a wrapper bound to this name sees one call.
    return _text(value)


def rational_text(x) -> str:
    """Exact rational as ``"p/q"``, or a plain integer string."""
    f = Fraction(x)
    try:
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    except ValueError:  # past int's string-conversion digit limit
        raise CapacityError("exact value has too many digits to print") from None


def partition_to_json(p: Partition) -> list[list[str]]:
    return [list(block) for block in p.blocks]


def _require(cond: bool, message: str, code: str = "invalid_input") -> None:
    if not cond:
        raise QrelnetError(message, code=code)


def _graph_lists(obj) -> tuple[list, list]:
    """The vertex and edge lists of a graph object, the vertices checked to be strings."""
    _require(isinstance(obj, dict), "graph must be a JSON object", "invalid_graph")
    _require("vertices" in obj and "edges" in obj, "graph needs 'vertices' and 'edges'", "invalid_graph")
    verts, edges = obj["vertices"], obj["edges"]
    _require(isinstance(verts, list) and all(isinstance(v, str) for v in verts),
             "graph vertices must be a list of strings", "invalid_graph")
    _require(isinstance(edges, list), "graph edges must be a list", "invalid_graph")
    return verts, edges


def parse_graph(obj) -> Graph:
    """Graph from ``{"vertices": [...], "edges": [[a, b], ...]}``."""
    from .graphs import Graph

    verts, edges = _graph_lists(obj)
    for e in edges:
        _require(isinstance(e, list) and len(e) == 2 and all(isinstance(v, str) for v in e),
                 "each edge must be a two-string list", "invalid_graph")
    return Graph(tuple(verts), tuple(map(tuple, edges)))


def parse_tagged_graph(obj) -> tuple[Graph, list[str]]:
    """Graph whose edges carry ``"kind": "quantum" | "classical"``.

    Edges look like ``{"endpoints": [a, b], "kind": "quantum"}``; every edge
    must be tagged.
    """
    from .graphs import Graph
    from .hybrid import CLASSICAL, QUANTUM

    verts, edges = _graph_lists(obj)
    pairs, kinds = [], []
    for e in edges:
        _require(isinstance(e, dict) and "endpoints" in e and "kind" in e,
                 "each tagged edge needs 'endpoints' and 'kind'", "invalid_graph")
        ends = e["endpoints"]
        _require(isinstance(ends, list) and len(ends) == 2 and all(isinstance(v, str) for v in ends),
                 "edge endpoints must be a two-string list", "invalid_graph")
        _require(e["kind"] in (QUANTUM, CLASSICAL),
                 f"edge kind must be '{QUANTUM}' or '{CLASSICAL}'", "invalid_graph")
        pairs.append(tuple(ends))
        kinds.append(e["kind"])
    return Graph(tuple(verts), tuple(pairs)), kinds


def _parse_complex(obj) -> complex:
    ok = (isinstance(obj, list) and len(obj) == 2
          and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in obj))
    _require(ok, "complex numbers are [re, im] pairs", "invalid_state")
    try:
        return complex(obj[0], obj[1])
    except OverflowError:
        raise QrelnetError("complex part too large for a float", code="invalid_state") from None


def _amplitude_parts(values: list) -> list[float]:
    """``[re, im]`` pairs as one flat list of floats: ``re`` then ``im``, entry by entry.

    Three scans check that every entry is a list, of length two, of exact
    ``int``s and ``float``s (no bools); the ``int``s are then converted by
    ``float``, so every part has the bits of ``complex(re, im)``, signed
    zeros included.  Anything else, or a part too large for a float, goes
    through the per-entry decoder for its error.
    """
    if set(map(type, values)) == {list} and set(map(len, values)) == {2}:
        parts = list(chain.from_iterable(values))
        kinds = set(map(type, parts))
        if kinds == {float}:
            return parts
        if kinds <= {int, float}:
            try:
                return list(map(float, parts))
            except OverflowError:
                pass
    return [x for z in map(_parse_complex, values) for x in (z.real, z.imag)]


def _parse_probability(x) -> float:
    _require(isinstance(x, (int, float)) and not isinstance(x, bool),
             "probabilities must be numbers", "invalid_probability")
    try:
        return float(x)
    except OverflowError:
        raise QrelnetError("probability too large for a float", code="invalid_probability") from None


def parse_state(obj, g: Graph) -> StateVector:
    """State over a graph's edges, from one of the three wire forms.

    ``{"type": "product", "qubits": [{"p": 0.3, "phase": [re, im]}, ...]}``
    with one qubit per edge; ``{"type": "two_term", "zeta": "11",
    "chi": "00", "p": 0.3, "phase": [re, im]}`` with edge-0-leftmost bit
    strings; or ``{"type": "amplitudes", "values": [[re, im], ...]}`` with
    one entry per basis state.  ``phase`` defaults to ``[1, 0]``.
    """
    from .graphs import edge_state_from_text
    from .states import QubitSpec, product_state, state_of_parts, two_term_state

    num_edges = g.num_edges
    _require(isinstance(obj, dict) and "type" in obj, "state must be an object with a 'type'", "invalid_state")
    kind = obj["type"]
    if kind == "product":
        _require(isinstance(obj.get("qubits"), list), "product state needs a 'qubits' list", "invalid_state")
        qubits = obj["qubits"]
        if len(qubits) != num_edges:
            raise WidthMismatchError(f"{len(qubits)} qubits for {num_edges} edges")
        specs = []
        for q in qubits:
            _require(isinstance(q, dict) and "p" in q, "each qubit needs a 'p'", "invalid_state")
            phase = _parse_complex(q["phase"]) if "phase" in q else 1.0 + 0j
            specs.append(QubitSpec(_parse_probability(q["p"]), phase))
        return product_state(specs)
    if kind == "two_term":
        for key in ("zeta", "chi", "p"):
            _require(key in obj, f"two-term state needs {key!r}", "invalid_state")
        zeta_text, chi_text = obj["zeta"], obj["chi"]
        _require(isinstance(zeta_text, str) and isinstance(chi_text, str),
                 "zeta and chi are bit strings", "invalid_state")
        if len(zeta_text) != num_edges or len(chi_text) != num_edges:
            raise WidthMismatchError("zeta/chi bit strings must have one character per edge")
        phase = _parse_complex(obj["phase"]) if "phase" in obj else 1.0 + 0j
        return two_term_state(
            g,
            edge_state_from_text(zeta_text),
            edge_state_from_text(chi_text),
            _parse_probability(obj["p"]),
            phase,
        )
    if kind == "amplitudes":
        values = obj.get("values")
        _require(isinstance(values, list), "amplitudes state needs a 'values' list", "invalid_state")
        if len(values) != 1 << num_edges:
            raise WidthMismatchError(f"{len(values)} amplitudes for {num_edges} edges")
        return state_of_parts(num_edges, _amplitude_parts(values))
    raise QrelnetError(f"unknown state type {kind!r}", code="invalid_state")


def parse_hybrid_state(obj, decomp: Decomposition) -> HybridState:
    """Hybrid state: ``{"quantum": <state>, "classical": [p, ...]}``.

    The classical list follows the tagged graph's classical edges in file
    order; the quantum state spans the quantum edges in file order.
    """
    from .hybrid import HybridState

    _require(isinstance(obj, dict) and "quantum" in obj and "classical" in obj,
             "hybrid state needs 'quantum' and 'classical'", "invalid_state")
    _require(isinstance(obj["classical"], list), "'classical' must be a probability list", "invalid_state")
    probs = [_parse_probability(x) for x in obj["classical"]]
    if len(probs) != decomp.classical.num_edges:
        raise WidthMismatchError(f"{len(probs)} probabilities for {decomp.classical.num_edges} classical edges")
    quantum = parse_state(obj["quantum"], decomp.quantum)
    return HybridState(quantum, tuple(probs))


# ``Fraction`` expands a decimal exponent into a power of ten, so "1e-9999999"
# alone takes seconds.  Mantissa digits are already capped by ``int``'s
# 4300-digit string limit; exponents get the same cap.
MAX_EXACT_EXPONENT = 4300


def parse_probability_list(text: str, exact: bool) -> list:
    """Comma-separated probabilities; exact mode parses rationals via Fraction."""
    if text.strip() == "":
        return []
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if exact and _exponent(piece) > MAX_EXACT_EXPONENT:
            raise QrelnetError(f"bad probability {piece!r}: exponent too large", code="invalid_probability")
        try:
            out.append(Fraction(piece) if exact else float(piece))
        except (ValueError, ZeroDivisionError) as exc:
            raise QrelnetError(f"bad probability {piece!r}: {exc}", code="invalid_probability") from None
    return out


def _exponent(piece: str) -> int:
    _, e, exponent = piece.lower().partition("e")
    if not e:
        return 0
    try:
        return abs(int(exponent))
    except ValueError:
        return 0
