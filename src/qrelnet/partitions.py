"""Set partitions of a finite vertex set and the connectivity-matrix inverse.

A partition's blocks are kept in canonical form (each block sorted, blocks
ordered by smallest element) so equality and hashing behave like equality of
set partitions.  ``connectivity_matrix`` builds the 0/1 matrix alpha with
alpha[i][j] = 1 exactly when the common coarsening of partitions i and j is a
single block, and its exact rational inverse beta, the weight table of the
splitting formula for networks glued along shared vertices.

alpha depends only on the join, so it factors over the partition lattice as
alpha = Z D Z^T (Lindstroem, "Determinants on semilattices", 1969), with Z
the zeta matrix (Z[r][p] = 1 when r refines p) and D = diag(mu(r, top)),
where mu(r, top) = (-1)^(k-1) (k-1)! for r with k blocks (Rota, 1964).  The
inverse is then closed form, beta = M^T D^-1 M with M = Z^-1 the Moebius
matrix, and (m-1)! clears every denominator, so alpha and beta * (m-1)! are
integer matrix products with no elimination.  They are summed in Python
ints, one int per matrix row, by Moebius recursions over the lattice, with
no numpy, and kept as tuples of int rows.  ``contract`` sums the same packed
rows to contract beta over the two sides of a split.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import factorial
from operator import and_, mul, or_

from .errors import CapacityError, QrelnetError, Record

# Bell(8) = 4140 partitions: enumeration stays desk-scale.
MAX_GROUND_SET = 8
# Bell(7) = 877: alpha and beta take about 0.14 s on a 2-vCPU VM, and the
# CLI prints 769,129 rationals.  The cap stays at 7 so `matrix --m 8` keeps
# its capacity error.
MAX_MATRIX_GROUND_SET = 7
_INT64_MAX = 2**63 - 1


class Partition(Record):
    """Set partition of a finite set of vertex names, in canonical form.

    The constructor canonicalizes: blocks are sorted internally and then by
    their smallest element.  Blocks must be non-empty and pairwise disjoint.
    """

    _fields = ("blocks",)

    def __init__(self, blocks: tuple[tuple[str, ...], ...]):
        canon = []
        seen = set()
        for block in blocks:
            members = sorted(block)
            if not members:
                raise QrelnetError("partition blocks must be non-empty", code="invalid_partition")
            for v in members:
                if v in seen:
                    raise QrelnetError(f"element {v!r} appears in two blocks", code="invalid_partition")
                seen.add(v)
            canon.append(tuple(members))
        canon.sort(key=lambda b: b[0])
        self._set(blocks=tuple(canon))

    def ground_set(self) -> frozenset[str]:
        return frozenset(v for block in self.blocks for v in block)


# Reference ordering for the partitions of three elements: singletons
# first, pair merges, single block last.
M3_REFERENCE_ORDER = (
    Partition((("1",), ("2",), ("3",))),
    Partition((("1",), ("2", "3"))),
    Partition((("1", "3"), ("2",))),
    Partition((("1", "2"), ("3",))),
    Partition((("1", "2", "3"),)),
)


def singletons(u) -> Partition:
    """Finest partition of ``u``: every element alone."""
    return Partition(tuple((v,) for v in set(u)))


def single_block(u) -> Partition:
    """Coarsest partition of ``u``: one block holding everything."""
    elems = set(u)
    return partition_of(elems, [0] * len(elems))


def partition_of(names, labels) -> Partition:
    """Partition of ``names`` that puts two names in one block iff their labels agree."""
    blocks: dict = {}
    for v, lab in zip(names, labels):
        blocks.setdefault(lab, []).append(v)
    return Partition(tuple(map(tuple, blocks.values())))


def enumerate_partitions(u) -> list[Partition]:
    """All partitions of ``u`` in restricted-growth-string lexicographic order.

    Elements are sorted first, so the order is canonical: the single-block
    partition comes first and the all-singletons partition last.
    """
    elems = sorted(set(u))
    m = len(elems)
    if m == 0:
        raise QrelnetError("cannot enumerate partitions of an empty set", code="invalid_partition")
    if m > MAX_GROUND_SET:
        raise CapacityError(f"partition enumeration capped at {MAX_GROUND_SET} elements, got {m}")

    # Restricted growth strings, extended one element at a time in lexicographic order.
    rows = [[0]]
    for _ in range(m - 1):
        rows = [r + [lab] for r in rows for lab in range(max(r) + 2)]
    return [partition_of(elems, r) for r in rows]


def _labels(p: Partition, index: dict[str, int]) -> list[int]:
    lab = [0] * len(index)
    for b, block in enumerate(p.blocks):
        for v in block:
            lab[index[v]] = b
    return lab


class ConnectivityMatrix(Record):
    """Partition order, the 0/1 connectivity matrix alpha, and its inverse.

    ``alpha`` is a tuple of rows, each a tuple of ``int``.  The inverse beta
    is kept as ``scaled``, beta times ``denominator``, in the same form; the
    ``beta`` property builds its exact ``Fraction`` rows on demand.  Two
    matrices are equal when their orders and denominators are, and ``repr``
    shows only those.
    """

    _fields = ("order", "denominator")

    def __init__(self, order: tuple[Partition, ...], alpha: tuple[tuple[int, ...], ...],
                 scaled: tuple[tuple[int, ...], ...], denominator: int):
        self._set(order=order, alpha=alpha, scaled=scaled, denominator=denominator)

    @property
    def beta(self) -> tuple[tuple[Fraction, ...], ...]:
        weight = {v: Fraction(v, self.denominator) for v in set().union(*self.scaled)}
        return tuple(tuple(map(weight.__getitem__, row)) for row in self.scaled)

    def weight_pairs(self):
        """Yield ``(i, j, n)`` for every nonzero ``beta[i][j] = n / denominator``, row by row."""
        return ((i, j, n) for i, row in enumerate(self.scaled) for j, n in enumerate(row) if n)


def bell_number(m: int) -> int:
    """Number of partitions of an m-element set."""
    if m < 0:
        raise QrelnetError("bell_number needs a non-negative argument", code="invalid_input")
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def matrix_for_order(parts) -> ConnectivityMatrix:
    """Connectivity matrix and exact inverse for an explicit partition order.

    ``parts`` must list every partition of one ground set exactly once; any
    ordering is accepted, so reference orderings can be reproduced verbatim.
    """
    parts = tuple(parts)
    if not parts:
        raise QrelnetError("empty partition order", code="invalid_partition")
    ground = parts[0].ground_set()
    m = len(ground)
    if m > MAX_MATRIX_GROUND_SET:
        raise CapacityError(f"connectivity matrix capped at {MAX_MATRIX_GROUND_SET} elements, got {m}")
    for p in parts:
        if p.ground_set() != ground:
            raise QrelnetError("partition order mixes ground sets", code="ground_set_mismatch")
    n = len(parts)
    if len(set(parts)) != n or n != bell_number(m):
        raise QrelnetError("partition order must list every partition exactly once", code="invalid_partition")

    # Block labels per element, 0 to the number of blocks minus 1.
    index = {v: i for i, v in enumerate(sorted(ground))}
    labels = [_labels(p, index) for p in parts]
    den = factorial(m - 1)
    alpha, scaled = _int_weights(labels, den)
    return ConnectivityMatrix(parts, alpha, scaled, den)


def _int_weights(labels: list[list[int]], den: int) -> tuple[tuple, tuple]:
    """alpha and beta * den for the partitions labelled by ``labels``, in Python ints.

    A partition is the bitset of the element pairs it keeps together, so r
    refines p exactly when ``together[r] & ~together[p]`` is 0; its up-set
    is the AND of its pairs' columns, its down-set the complement of the
    OR of the other pairs' columns.  Each matrix row is one Python int with
    entry q in bits 64q to 64q + 63 (read back by :func:`_unpack`), so one
    addition adds a whole row.  Two Moebius recursions over the lattice
    build beta * den = M^T diag(den / mu(r, top)) M row by row, with no
    entry of mu computed alone:

    - row r of M, mu(r, q) at every q, is e_r minus the rows of M above r,
      since mu(r, q) sums to 0 over r <= s <= q when r < q;
    - row p of beta * den is row p of diag(den / mu(r, top)) M minus the
      rows of beta * den below p, by the same identity.

    alpha[p][q] is 0 exactly when p and q lie below one two-block partition.
    """
    n, m = len(labels), len(labels[0])
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    together = [sum(1 << t for t, (a, b) in enumerate(pairs) if row[a] == row[b]) for row in labels]
    # column[t]: the partitions that keep pair t together, as a bitset.
    column = [sum(1 << p for p in range(n) if together[p] >> t & 1) for t in range(len(pairs))]
    full, every_pair = (1 << n) - 1, (1 << len(pairs)) - 1
    up = [reduce(and_, compress(column, _bits(kept, len(pairs))), full) for kept in together]
    down = [full & ~reduce(or_, compress(column, _bits(kept ^ every_pair, len(pairs))), 0) for kept in together]
    blocks = [max(row) + 1 for row in labels]
    # mu_of[k] = mu(r, top) = (-1)^(k-1) (k-1)! for r with k blocks.
    mu_of = [1] + [(-1) ** c * factorial(c) for c in range(m)]

    # Coarsest first, so every row a recursion subtracts is already summed;
    # the row being summed is still 0 inside its own up- or down-set.
    coarse_first = sorted(range(n), key=blocks.__getitem__)
    mobius = [0] * n
    for r in coarse_first:
        mobius[r] = (1 << 64 * r) - sum(compress(mobius, _bits(up[r], n)))
    rows = [0] * n
    for p in reversed(coarse_first):
        rows[p] = den // mu_of[blocks[p]] * mobius[p] - sum(compress(rows, _bits(down[p], n)))
    # The up-set of r with k blocks is the lattice of k elements, where
    # |mu| sums to k!, so bound is at least the absolute sum of beta * den.
    # It bounds every entry, both packed sums of :func:`contract` field by
    # field (0/1 selections of entries, and middle[j] times 0/1 rows), and,
    # times n, the probe's entries: all stay within int64.
    bound = sum(den // factorial(k - 1) * factorial(k) ** 2 for k in blocks)
    if n * bound > _INT64_MAX:
        raise CapacityError(f"splitting weights for {m} elements overflow int64")
    scaled = tuple(tuple(_unpack(row, n)) for row in rows)

    # A two-block partition keeps apart every pair of partitions below it.
    coatoms = sum(1 << c for c in range(n) if blocks[c] == 2)
    apart = [reduce(or_, compress(down, _bits(up[p] & coatoms, n)), 0) for p in range(n)]
    alpha = tuple(tuple(_bits(~mask & full, n)) for mask in apart)

    # Exactness probe: alpha @ (beta @ x) must reproduce x.  beta is
    # symmetric, so beta @ x is the sum of x[q] times row q.
    bx = _unpack(sum(map(mul, range(1, n + 1), rows)), n)
    if [sum(compress(bx, row)) for row in alpha] != [den * x for x in range(1, n + 1)]:
        raise QrelnetError("inverse verification failed", code="singular_matrix")
    return alpha, scaled


def contract(cm: ConnectivityMatrix, left, right) -> list[list[int]]:
    """``left^T (beta * den) right`` for lists ``left`` and ``right`` of 0/1 rows over ``cm.order``.

    For each column of ``left``, the packed rows of ``cm.scaled`` that it
    selects (or the total less the others, when it selects more than half)
    sum to ``middle``; then ``middle[j]`` times packed ``right[j]`` sums to
    the result row.  :func:`_int_weights` keeps every field within int64.
    """
    n, width = len(cm.order), len(right[0])
    rows = list(map(_pack, cm.scaled))
    total, right = sum(rows), list(map(_pack, right))
    table = []
    for column in zip(*left):
        if 2 * sum(column) > n:
            middle = _unpack(total - sum(compress(rows, [1 - c for c in column])), n)
        else:
            middle = _unpack(sum(compress(rows, column)), n)
        table.append(_unpack(sum(w * row for w, row in zip(middle, right) if w), width))
    return table


def _offset(n: int) -> int:
    """2**63 in each of ``n`` 64-bit fields."""
    return int.from_bytes((1 << 63).to_bytes(8, sys.byteorder) * n, sys.byteorder)


def _pack(row) -> int:
    """The sum of ``row[i] << 64 * i`` for int64 entries: the inverse of :func:`_unpack`."""
    offset = _offset(len(row))
    return (int.from_bytes(array("q", row).tobytes(), sys.byteorder) ^ offset) - offset


def _unpack(packed: int, n: int) -> list[int]:
    """Entries 0 to ``n - 1`` of ``packed``, the sum of ``v[i] << 64 * i``, while each is within int64."""
    # XOR with ``offset`` flips each field's top bit: packed + offset holds
    # every entry plus 2**63, with no borrow between fields, and the flip
    # turns that into the entry's two's complement bytes.
    offset = _offset(n)
    return memoryview(((packed + offset) ^ offset).to_bytes(8 * n, sys.byteorder)).cast("q").tolist()


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int, n: int) -> bytes:
    """Bits 0 to ``n - 1`` of ``mask``, lowest first, as the bytes 0 and 1."""
    return format(mask, f"0{n}b")[::-1].encode().translate(_BITS)


def check_matrix_size(m: int) -> None:
    if not 1 <= m <= MAX_MATRIX_GROUND_SET:
        raise CapacityError(f"connectivity matrix needs between 1 and {MAX_MATRIX_GROUND_SET} elements, got {m}")


def connectivity_matrix(u) -> ConnectivityMatrix:
    """Connectivity matrix over all partitions of ``u`` in canonical order."""
    elems = set(u)
    check_matrix_size(len(elems))
    return matrix_for_order(enumerate_partitions(elems))
