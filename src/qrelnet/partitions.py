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
int64 matrix products with no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import CapacityError, QrelnetError

# Bell(8) = 4140 partitions: enumeration stays desk-scale.
MAX_GROUND_SET = 8
# Bell(7) = 877: two dense 877 x 877 int64 products build alpha and beta
# in about 2.6 s on a 2-vCPU VM, and the CLI prints 769,129 rationals.  The
# cap stays at 7 so `matrix --m 8` keeps its capacity error.
MAX_MATRIX_GROUND_SET = 7
_INT64_MAX = int(np.iinfo(np.int64).max)


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

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def singletons(u) -> Partition:
    """Finest partition of ``u``: every element alone."""
    return Partition(tuple((v,) for v in set(u)))


def single_block(u) -> Partition:
    """Coarsest partition of ``u``: one block holding everything."""
    elems = set(u)
    if not elems:
        return Partition(())
    return Partition((tuple(elems),))


def is_single_block(p: Partition) -> bool:
    return len(p.blocks) == 1


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

    out: list[Partition] = []
    labels = [0] * m

    def extend(i: int, used: int) -> None:
        if i == m:
            blocks: list[list[str]] = [[] for _ in range(used)]
            for pos, lab in enumerate(labels):
                blocks[lab].append(elems[pos])
            out.append(Partition(tuple(tuple(b) for b in blocks)))
            return
        for lab in range(used + 1):
            labels[i] = lab
            extend(i + 1, max(used, lab + 1))

    extend(1, 1)
    return out


def components(n: int, pairs) -> list[list[int]]:
    """Groups of ``range(n)`` joined by the index ``pairs``, by union-find.

    Each pair hangs the root of its second element under the root of its
    first; groups are listed by their smallest member, members ascending.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def merge(p: Partition, q: Partition) -> Partition:
    """Finest common coarsening of two partitions of the same ground set."""
    gp, gq = p.ground_set(), q.ground_set()
    if gp != gq:
        raise QrelnetError("cannot merge partitions of different ground sets", code="ground_set_mismatch")
    elems = sorted(gp)
    index = {v: i for i, v in enumerate(elems)}
    pairs = [(index[block[0]], index[v]) for part in (p, q) for block in part.blocks for v in block[1:]]
    return Partition(tuple(tuple(elems[i] for i in group) for group in components(len(elems), pairs)))


def _labels(p: Partition, index: dict[str, int]) -> list[int]:
    lab = [0] * len(index)
    for b, block in enumerate(p.blocks):
        for v in block:
            lab[index[v]] = b
    return lab


@dataclass(frozen=True)
class ConnectivityMatrix:
    """Partition order, 0/1 connectivity matrix alpha, and its exact inverse beta.

    ``scaled`` is beta times ``denominator`` as a read-only int64 array, for
    exact integer contractions.
    """

    order: tuple[Partition, ...]
    alpha: tuple[tuple[int, ...], ...]
    beta: tuple[tuple[Fraction, ...], ...]
    scaled: np.ndarray = field(compare=False, repr=False)
    denominator: int

    def index_of(self, p: Partition) -> int:
        return self.order.index(p)

    def weight_pairs(self):
        """Yield ``(i, j, beta[i][j])`` for every nonzero weight, row by row."""
        return ((i, j, b) for i, row in enumerate(self.beta) for j, b in enumerate(row) if b)


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
    den = factorial(m - 1)
    if n * den**3 > _INT64_MAX:
        raise CapacityError(f"splitting weights for {m} elements overflow int64")

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
    # every partial sum bounded by n * den**3 (checked above).
    top = mu_of[blocks]
    z = zeta.astype(np.int64)
    alpha = (z * top) @ z.T
    scaled = mobius.T @ ((den // top)[:, None] * mobius)

    # Exactness probe in integers: alpha @ (beta @ x) must reproduce x.  Its
    # partial sums are bounded by n times the absolute sum of beta * den.
    x = np.arange(1, n + 1, dtype=np.int64)
    if n * sum(np.abs(scaled).sum(axis=1).tolist()) > _INT64_MAX:
        raise CapacityError(f"splitting weights for {m} elements overflow int64")
    if not np.array_equal(alpha @ (scaled @ x), den * x):
        raise QrelnetError("inverse verification failed", code="singular_matrix")

    scaled.flags.writeable = False
    rows = scaled.tolist()
    weight = {v: Fraction(v, den) for v in set().union(*rows)}
    return ConnectivityMatrix(
        parts,
        tuple(tuple(row) for row in alpha.tolist()),
        tuple(tuple(map(weight.__getitem__, row)) for row in rows),
        scaled,
        den,
    )


def check_matrix_size(m: int) -> None:
    if not 1 <= m <= MAX_MATRIX_GROUND_SET:
        raise CapacityError(f"connectivity matrix needs between 1 and {MAX_MATRIX_GROUND_SET} elements, got {m}")


def connectivity_matrix(u) -> ConnectivityMatrix:
    """Connectivity matrix over all partitions of ``u`` in canonical order."""
    elems = set(u)
    check_matrix_size(len(elems))
    return matrix_for_order(enumerate_partitions(elems))


def beta_identities_check(cm: ConnectivityMatrix) -> bool:
    """Check the two exact identities satisfied by the inverse weights.

    The row of the single-block partition is the indicator of the
    all-singletons partition, and every row sums to zero except that same
    single-block row, which sums to one.
    """
    ground = cm.order[0].ground_set()
    t = single_block(ground)
    f = singletons(ground)
    ti = cm.index_of(t)
    fi = cm.index_of(f)
    n = len(cm.order)
    row_ok = all(cm.beta[ti][j] == (1 if j == fi else 0) for j in range(n))
    sums_ok = all(sum(cm.beta[i]) == (1 if i == ti else 0) for i in range(n))
    return row_ok and sums_ok
