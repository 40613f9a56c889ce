"""All-terminal reliability of multigraphs with independent edge failures.

Two routes to the same number, both over the one frontier compile of
:mod:`qrelnet.graphs`: an enumeration of the connected edge states, and
the deletion/contraction recursion run as a dynamic program over frontier
states.  The enumeration weighs the :func:`~qrelnet.graphs.traces` ids,
lists up to ``graphs.LIST_EDGES`` edges, arrays in chunks past that,
by :func:`weigh_rows`, the one flagged sum over edge states, which adds
Born weights for ``qr``, ``hybrid`` and ``sublayer`` too.  The factor
route walks the list tables in the given edge order, which its float bits
follow.  numpy loads only in the functions that build arrays.  Both
accept floats or exact rationals.  With ``int`` or ``Fraction``
probabilities both weigh by the integer numerators of :func:`_factors`
over one common denominator, and a ``Fraction`` is built only for the
result.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import accumulate, compress
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


def _factors(probs) -> tuple[list[tuple], int | None]:
    """Each edge's weight factors ``(absent, present)``, and their denominator.

    Exact when every probability is an ``int`` or ``Fraction``: the factors
    are then integer numerators over the edge's own denominator, their sum,
    and the denominator returned is the product of the edges' ones.
    Otherwise they are floats of ``1 - p`` (formed in ``p``'s own type) and
    ``p``, and the denominator is ``None``.
    """
    if all(isinstance(x, (int, Fraction)) for x in probs):
        fracs = [Fraction(x) for x in probs]
        return [(f.denominator - f.numerator, f.numerator) for f in fracs], prod(f.denominator for f in fracs)
    return [(float(1 - x), float(x)) for x in probs], None


def reliability_enumerate(g: Graph, probs):
    """Probability that the surviving edges connect all vertices, by enumeration.

    Weighs, by :func:`bernoulli_rows`, the edge states whose trace on one
    kept vertex, from :func:`~qrelnet.graphs.traces`, leaves no island.
    """
    probs = _validate_probabilities(g, probs)
    ids, finals = traces(g, g.vertices[:1])
    return bernoulli_rows([[f is not None for f in finals]], ids, probs)[0]


def bernoulli_rows(rows, ids, probs) -> list:
    """:func:`weigh_rows` of the Bernoulli weights of ``probs``, already checked.

    A state weighs its edges' :func:`_factors` multiplied in edge order:
    list ``ids`` one table doubled over every edge, array ``ids`` one of the
    low ``CHUNK_BITS`` edges and the high edges' pairs.  Exact when every
    probability is an ``int`` or ``Fraction``, float otherwise.
    """
    factors, denominator = _factors(probs)
    exact = denominator is not None
    if isinstance(ids, list):
        low = len(factors)
        table = [1 if exact else 1.0]
        for absent, present in factors:
            table = [w * absent for w in table] + [w * present for w in table]
    else:
        import numpy as np

        low = min(len(factors), CHUNK_BITS)
        table = np.ones(1, dtype=object if exact else float)
        for absent, present in factors[:low]:
            table = np.concatenate((table * absent, table * present))
    totals = weigh_rows(rows, ids, table, factors[low:], 0 if exact else 0.0)
    return [Fraction(t, denominator) for t in totals] if exact else totals


def weigh_rows(rows, ids, weights, high=(), zero=0.0) -> list:
    """Total weight, per row, of the edge states ``s`` with ``row[ids[s]]`` true.

    State ``s`` weighs ``weights[s % len(weights)]`` times, in edge order,
    one factor of each ``high`` pair, picked by the bits of ``s //
    len(weights)``: a Born vector comes alone, a Bernoulli table of the low
    edges with the high edges' pairs.  Each row adds its flagged weights
    from ``zero`` in state order by :func:`sum_in_order`, which for weights
    of at least +0.0 has the bits of the plain loop over every state.  List
    ``ids`` take the whole table; array ``ids`` are walked in chunks of
    ``2 ** CHUNK_BITS`` states, each row selecting before multiplying.
    """
    if isinstance(ids, list):
        return [sum_in_order(compress(weights, map(row.__getitem__, ids)), zero) for row in rows]
    import numpy as np

    rows = [np.array(row, dtype=bool) for row in rows]
    totals = [zero] * len(rows)
    size = len(weights)
    step = min(1 << CHUNK_BITS, size)
    for start in range(0, ids.size, step):
        chunk = ids[start : start + step]
        block = weights[start % size : start % size + step]
        factors = [pair[start // size >> i & 1] for i, pair in enumerate(high)]
        for r, row in enumerate(rows):
            w = block[row.take(chunk)]
            for f in factors:
                w *= f
            totals[r] = sum_in_order(w, totals[r])
    return totals


def sum_in_order(values, start: float = 0.0) -> float:
    """``start`` plus a sequence of numbers, added strictly left to right.

    A float64 array is prefix-summed by ``np.add.accumulate`` in chunks of
    ``2 ** CHUNK_BITS``, carrying the running total, so no copy of the
    whole array is made.  Anything else, such as a list, an iterator or an
    object array of exact ints, is folded by ``itertools.accumulate``, so
    exact numbers stay exact (``sum`` compensates float additions since
    Python 3.12).  Neither reorders, unlike ``np.dot``, ``np.sum`` or ``sum``, so
    the result has the plain loop's bits on any machine and thread count.
    """
    if getattr(values, "dtype", None) != "float64":
        return deque(accumulate(values, initial=start), maxlen=1).pop()
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
    route loads no numpy.  Each split is ``present * contracted + absent *
    deleted`` over the :func:`_factors`.  Exact values are integer
    numerators, so a dropped edge multiplies by its own denominator, and the
    result is one ``Fraction``; float values carry the bits of the plain
    recursion.
    """
    probs = _validate_probabilities(g, probs)
    start, tables, finals = frontier_lists(g, g.vertices[:1])
    factors, denominator = _factors(probs)
    exact = denominator is not None
    value = [int(f is not None) for f in finals]
    for (absent, present), (t0, t1) in zip(reversed(factors), reversed(tables)):
        loop = absent + present if exact else 1.0  # the edge's denominator; x * 1.0 is x
        value = [value[a] * loop if a == b else present * value[b] + absent * value[a] for a, b in zip(t0, t1)]
    return Fraction(value[start], denominator) if exact else float(value[start])
