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
integer matrix products with no elimination.  Every partial sum of those
products is an integer below 2**53, so they run exactly as float64 BLAS
products (Dumas, Giorgi & Pernet, ACM TOMS 35(3), 2008).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import TYPE_CHECKING

from .errors import CapacityError, QrelnetError

# numpy loads in the functions that build arrays, so the frontier compile of
# ``reliability --method factor`` can use ``Partition`` without it.
if TYPE_CHECKING:
    import numpy as np

# Bell(8) = 4140 partitions: enumeration stays desk-scale.
MAX_GROUND_SET = 8
# Bell(7) = 877: alpha and beta take about 0.16 s on a 2-vCPU VM, two dense
# 877 x 877 float64 products included, and the CLI prints 769,129
# rationals.  The cap stays at 7 so `matrix --m 8` keeps its capacity error.
MAX_MATRIX_GROUND_SET = 7
_INT64_MAX = 2**63 - 1
# Largest bound on partial sums under which float64 products stay exact.
_FLOAT64_EXACT = 2**53


@dataclass(frozen=True)
class Partition:
    """Set partition of a finite set of vertex names, in canonical form.

    The constructor canonicalizes: blocks are sorted internally and then by
    their smallest element.  Blocks must be non-empty and pairwise disjoint.
    """

    blocks: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        canon = []
        seen = set()
        for block in self.blocks:
            members = sorted(block)
            if not members:
                raise QrelnetError("partition blocks must be non-empty", code="invalid_partition")
            for v in members:
                if v in seen:
                    raise QrelnetError(f"element {v!r} appears in two blocks", code="invalid_partition")
                seen.add(v)
            canon.append(tuple(members))
        canon.sort(key=lambda b: b[0])
        object.__setattr__(self, "blocks", tuple(canon))

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


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Partition order, the 0/1 connectivity matrix alpha, and its inverse.

    ``alpha`` is a read-only uint8 array.  The inverse beta is kept as
    ``scaled``, beta times ``denominator``, a read-only int64 array; the
    ``beta`` property builds its exact ``Fraction`` rows on demand.
    """

    order: tuple[Partition, ...]
    alpha: np.ndarray = field(compare=False, repr=False)
    scaled: np.ndarray = field(compare=False, repr=False)
    denominator: int

    @property
    def beta(self) -> tuple[tuple[Fraction, ...], ...]:
        rows = self.scaled.tolist()
        weight = {v: Fraction(v, self.denominator) for v in set().union(*rows)}
        return tuple(tuple(map(weight.__getitem__, row)) for row in rows)

    def weight_pairs(self):
        """Yield ``(i, j, n)`` for every nonzero ``beta[i][j] = n / denominator``, row by row."""
        rows, cols = self.scaled.nonzero()
        return zip(rows.tolist(), cols.tolist(), self.scaled[rows, cols].tolist())


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
    import numpy as np

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
    den = factorial(m - 1)
    if n * den**3 > _FLOAT64_EXACT:
        raise CapacityError(f"splitting weights for {m} elements overflow float64")

    # Block labels per element; canonical block order makes each row a
    # restricted growth string, so an element leads its block iff its label
    # exceeds every label before it.
    index = {v: i for i, v in enumerate(sorted(ground))}
    labels = np.array([_labels(p, index) for p in parts], dtype=np.int64).reshape(n, m)
    blocks = labels.max(axis=1) + 1
    leads = np.ones((n, m), dtype=np.int64)
    leads[:, 1:] = labels[:, 1:] > np.maximum.accumulate(labels, axis=1)[:, :-1]

    # Zeta: r refines p iff every pair of elements together in r is together in p.
    a, b = np.triu_indices(m, 1)
    together = (labels[:, a] == labels[:, b]) @ (np.int64(1) << np.arange(len(a), dtype=np.int64))
    zeta = (together[:, None] & ~together[None, :]) == 0

    # Moebius: for r refining p, mu(r, p) is the product over the blocks of p
    # of mu_of[c], c the number of blocks of r inside; mu_of[c] = (-1)^(c-1)
    # (c-1)! merges c blocks into one, and mu_of[0] = 1 pads absent blocks.
    r, p = np.nonzero(zeta)
    mu_of = np.array([1] + [(-1) ** c * factorial(c) for c in range(m)], dtype=np.int64)
    inside = np.einsum("ti,tib->tb", leads[r], (labels[p, :, None] == np.arange(m)).astype(np.int64))
    mobius = np.zeros((n, n), dtype=np.int64)
    mobius[r, p] = np.prod(mu_of[inside], axis=1)

    # alpha = Z diag(mu(r, top)) Z^T and beta * den = M^T diag(den / mu(r, top)) M,
    # every partial sum an integer bounded by n * den**3 (checked above), so
    # the float64 products are exact.
    top = mu_of[blocks]
    z, mf = zeta.astype(np.float64), mobius.astype(np.float64)
    alpha = ((z * top) @ z.T).astype(np.int64)
    scaled = (mf.T @ ((den // top)[:, None] * mf)).astype(np.int64)

    # Exactness probe in integers: alpha @ (beta @ x) must reproduce x.  Its
    # partial sums are bounded by n times the absolute sum of beta * den.
    x = np.arange(1, n + 1, dtype=np.int64)
    if n * sum(np.abs(scaled).sum(axis=1).tolist()) > _INT64_MAX:
        raise CapacityError(f"splitting weights for {m} elements overflow int64")
    if not np.array_equal(alpha @ (scaled @ x), den * x):
        raise QrelnetError("inverse verification failed", code="singular_matrix")

    alpha = alpha.astype(np.uint8)
    alpha.flags.writeable = False
    scaled.flags.writeable = False
    return ConnectivityMatrix(parts, alpha, scaled, den)


def check_matrix_size(m: int) -> None:
    if not 1 <= m <= MAX_MATRIX_GROUND_SET:
        raise CapacityError(f"connectivity matrix needs between 1 and {MAX_MATRIX_GROUND_SET} elements, got {m}")


def connectivity_matrix(u) -> ConnectivityMatrix:
    """Connectivity matrix over all partitions of ``u`` in canonical order."""
    elems = set(u)
    check_matrix_size(len(elems))
    return matrix_for_order(enumerate_partitions(elems))
