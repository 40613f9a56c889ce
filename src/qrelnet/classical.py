"""All-terminal reliability of multigraphs with independent edge failures.

Two routes to the same number: direct summation over all edge states, and
the deletion/contraction recursion.  Both accept floats or exact rationals;
with ``fractions.Fraction`` probabilities every intermediate stays exact.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import QrelnetError, WidthMismatchError
from .graphs import Graph, connectivity_flags, contract_edge, delete_edge


def _validate_probabilities(g: Graph, probs) -> list:
    probs = list(probs)
    if len(probs) != g.num_edges:
        raise WidthMismatchError(f"{len(probs)} probabilities for {g.num_edges} edges")
    for x in probs:
        if not 0 <= x <= 1:
            raise QrelnetError(f"edge probability {x} outside [0, 1]", code="invalid_probability")
    return probs


def _all_exact(probs) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in probs)


def reliability_enumerate(g: Graph, probs):
    """Probability that the surviving edges connect all vertices, by enumeration.

    Sums the Bernoulli weight of every connected edge state in ascending
    state order; the connected states come from one frontier pass.  Exact
    when every probability is an ``int`` or ``Fraction``, float otherwise.
    """
    probs = _validate_probabilities(g, probs)
    comp = [1 - x for x in probs]
    n = g.num_edges
    exact = _all_exact(probs)
    one = Fraction(1) if exact else 1.0
    total = one * 0
    for state in connectivity_flags(g).nonzero()[0].tolist():
        w = one
        for i in range(n):
            w *= probs[i] if state >> i & 1 else comp[i]
        total += w
    return total


def reliability_factorize(g: Graph, probs):
    """Same value as :func:`reliability_enumerate`, by deletion/contraction.

    Splits on the lowest-index live edge: contract with weight p, delete with
    weight 1 - p.  Self-loops are contracted away eagerly (they never affect
    connectivity).  No shortcuts beyond the loop rule, so the recursion shape
    is deterministic.
    """
    probs = _validate_probabilities(g, probs)
    exact = _all_exact(probs)

    def recurse(h: Graph, ps: list):
        keep = [i for i, (a, b) in enumerate(h.edges) if a != b]
        if len(keep) != h.num_edges:
            h = Graph(h.vertices, tuple(h.edges[i] for i in keep))
            ps = [ps[i] for i in keep]
        if not h.edges:
            connected = len(h.vertices) <= 1
            if exact:
                return Fraction(1 if connected else 0)
            return 1.0 if connected else 0.0
        r = ps[0]
        rest = ps[1:]
        return r * recurse(contract_edge(h, 0), rest) + (1 - r) * recurse(delete_edge(h, 0), rest)

    return recurse(g, probs)
