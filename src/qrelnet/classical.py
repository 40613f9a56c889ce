"""All-terminal reliability of multigraphs with independent edge failures.

Two routes to the same number, both over the one frontier compile of
:mod:`qrelnet.graphs`, :func:`~qrelnet.graphs.frontier_lists`: an
enumeration of the connected edge states, and the deletion/contraction
recursion run as a dynamic program over frontier states.  The enumeration
weighs the trace ids of :func:`~qrelnet.graphs.traces`, compiled in a
breadth-first edge order: Python lists while its ``2 ** |E|`` states fit
one chunk, arrays weighed in chunks past that.  The factor route walks
the Python-list tables in the given edge order, which its float bits
follow.  numpy loads only in the functions that build arrays.  Both
accept floats or exact rationals; with ``fractions.Fraction``
probabilities every intermediate stays exact.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import prod

from .errors import QrelnetError, WidthMismatchError
from .graphs import Graph, frontier_lists, traces

# An array of states is walked in aligned chunks of 2 ** CHUNK_BITS, so no
# temporary grows with |E|; enumeration tabulates the factors of that many
# edges once.
CHUNK_BITS = 16


def check_probabilities(probs) -> list:
    """The probabilities as a list, each checked to lie in [0, 1]."""
    probs = list(probs)
    for x in probs:
        if not 0 <= x <= 1:
            try:
                message = f"edge probability {x} outside [0, 1]"
            except ValueError:  # past int's string-conversion digit limit
                message = "edge probability outside [0, 1], with too many digits to print"
            raise QrelnetError(message, code="invalid_probability")
    return probs


def _validate_probabilities(g: Graph, probs) -> list:
    probs = list(probs)
    if len(probs) != g.num_edges:
        raise WidthMismatchError(f"{len(probs)} probabilities for {g.num_edges} edges")
    return check_probabilities(probs)


def _all_exact(probs) -> bool:
    return all(isinstance(x, (int, Fraction)) for x in probs)


def _factors(probs) -> tuple[list[tuple], int | None]:
    """Each edge's weight factors ``(absent, present)``, and their denominator.

    Exact when every probability is an ``int`` or ``Fraction``: the factors
    are then integer numerators over one common denominator, the product of
    the probabilities' denominators.  Otherwise they are floats of ``1 - p``
    (formed in ``p``'s own type) and ``p``, and the denominator is ``None``.
    """
    if _all_exact(probs):
        fracs = [Fraction(x) for x in probs]
        return [(f.denominator - f.numerator, f.numerator) for f in fracs], prod(f.denominator for f in fracs)
    return [(float(1 - x), float(x)) for x in probs], None


def reliability_enumerate(g: Graph, probs):
    """Probability that the surviving edges connect all vertices, by enumeration.

    Weighs, by :func:`weigh_rows`, the edge states whose trace on one kept
    vertex, from :func:`~qrelnet.graphs.traces`, leaves no island.
    """
    probs = _validate_probabilities(g, probs)
    ids, finals = traces(g, g.vertices[:1])
    return weigh_rows([[f is not None for f in finals]], ids, probs)[0]


def weigh_rows(rows, ids, probs) -> list:
    """Total Bernoulli weight, per row, of the edge states ``s`` with ``row[ids[s]]`` true.

    ``ids`` has one entry per state of ``len(probs)`` edges, edge ``k`` on
    bit ``k``, each row one entry per final state, and ``probs`` are
    already checked.  Each weight is the product of its edges'
    :func:`_factors` in edge order, and each row's are added in state order,
    floats by :func:`sum_in_order`, so both forms give the bits of the
    plain per-state loop.  List weights double once per edge.  Array
    ``ids`` are walked in chunks of ``2 ** CHUNK_BITS`` states, each row
    gathering one table of the low edges' weights, the high edges' factors
    following.  Exact when every probability is an ``int`` or ``Fraction``,
    float otherwise.
    """
    factors, denominator = _factors(probs)
    exact = denominator is not None
    if isinstance(ids, list):
        weights = [1 if exact else 1.0]
        for absent, present in factors:
            weights = [w * absent for w in weights] + [w * present for w in weights]
        kept = [compress(weights, map(row.__getitem__, ids)) for row in rows]
        if not exact:
            return list(map(sum_in_order, kept))
        return [Fraction(sum(k), denominator) for k in kept]
    import numpy as np

    table = np.ones(1, dtype=object if exact else float)
    low = min(len(factors), CHUNK_BITS)
    # table[s] is the weight of the low edges in state s, multiplied in edge order.
    for absent, present in factors[:low]:
        table = np.concatenate((table * absent, table * present))
    totals = []
    for row in rows:
        row = np.array(row, dtype=bool)
        total = 0 if exact else 0.0
        for start in range(0, ids.size, table.size):
            w = table[row.take(ids[start : start + table.size])]
            high = start >> low
            for i, pair in enumerate(factors[low:]):
                w = w * pair[high >> i & 1]
            total = total + int(w.sum()) if exact else sum_in_order(w, total)
        totals.append(Fraction(total, denominator) if exact else total)
    return totals


def sum_in_order(values, start: float = 0.0) -> float:
    """``start`` plus a sequence of floats, added strictly left to right.

    A Python list or iterator is folded with ``operator.add`` (not ``sum``,
    which compensates its float additions since Python 3.12), with no numpy.
    A numpy array is prefix-summed by ``np.add.accumulate`` in chunks of
    ``2 ** CHUNK_BITS``, carrying the running total, so no copy of the whole
    array is made.  Neither reorders, unlike ``np.dot``, ``np.sum`` or
    ``sum``, so the result has the plain loop's bits on any machine and
    thread count, and the two routes give the same bits.
    """
    if not hasattr(values, "dtype"):
        return reduce(operator.add, values, start)
    import numpy as np

    step = 1 << CHUNK_BITS
    for i in range(0, values.size, step):
        start = float(np.add.accumulate(np.concatenate(([start], values[i : i + step])))[-1])
    return start


def reliability_factorize(g: Graph, probs):
    """Same value as :func:`reliability_enumerate`, by deletion/contraction.

    Splits on the edges in index order: contract with weight p, delete with
    weight 1 - p.  An edge whose endpoints are already merged is a loop and
    is dropped without a split (loops never affect connectivity).  The
    recursion is memoized on (edge index, frontier partition), since a
    subproblem's value depends on nothing else: it runs backward over the
    frontier tables, from 1 on every live final state and 0 on the dead
    state.  The tables are the Python lists of
    :func:`~qrelnet.graphs.frontier_lists`, compiled state by state, so this
    route loads no numpy.  Each split is ``p * contracted + (1 - p) *
    deleted``, with ``1 - p`` formed in ``p``'s own type, so rationals stay
    exact and floats carry the bits of the plain recursion (a ``Fraction``
    or ``int`` meets a float as its ``float``).
    """
    probs = _validate_probabilities(g, probs)
    start, tables, finals = frontier_lists(g, g.vertices[:1])
    one = Fraction(1) if _all_exact(probs) else 1.0
    value = [one if f is not None else 0 * one for f in finals]
    for r, (t0, t1) in zip(reversed(probs), reversed(tables)):
        s = 1 - r
        value = [value[a] if a == b else r * value[b] + s * value[a] for a, b in zip(t0, t1)]
    return value[start] if isinstance(one, Fraction) else float(value[start])
