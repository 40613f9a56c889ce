"""Partition canonical form, enumeration order, and the exact inverse."""

import functools
import math
import random
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

from qrelnet import (
    CapacityError,
    Partition,
    QrelnetError,
    bell_number,
    connectivity_matrix,
    enumerate_partitions,
    matrix_for_order,
    single_block,
    singletons,
)
import qrelnet.partitions
from qrelnet.partitions import _INT64_MAX, M3_REFERENCE_ORDER, _pack, _unpack, contract
from qrelnet.operators import split_sum
from helpers import assert_beta_identities, int64_contraction, invert_exact, pairwise_merge_alpha, rejection

# Bell numbers 0..8, from the standard recurrence worked by hand.
BELLS = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def test_partition_canonicalizes():
    p = Partition((("c", "b"), ("a",)))
    assert p.blocks == (("a",), ("b", "c"))
    assert p == Partition((("a",), ("b", "c")))
    assert hash(p) == hash(Partition((("b", "c"), ("a",))))


def test_partition_rejects_bad_blocks():
    with pytest.raises(QrelnetError):
        Partition(((),))
    with pytest.raises(QrelnetError):
        Partition((("a",), ("a", "b")))


def test_bell_numbers():
    assert [bell_number(m) for m in range(9)] == BELLS


def test_enumerate_counts_and_extremes():
    for m in range(1, 7):
        u = [f"x{i}" for i in range(m)]
        parts = enumerate_partitions(u)
        assert len(parts) == BELLS[m]
        assert len(set(parts)) == len(parts)
        assert parts[0] == single_block(u)
        assert parts[-1] == singletons(u)
        assert all(p.ground_set() == frozenset(u) for p in parts)


def test_enumerate_order_for_three_elements():
    parts = enumerate_partitions(["1", "2", "3"])
    assert [p.blocks for p in parts] == [
        (("1", "2", "3"),),
        (("1", "2"), ("3",)),
        (("1", "3"), ("2",)),
        (("1",), ("2", "3")),
        (("1",), ("2",), ("3",)),
    ]


def test_enumerate_caps_and_empty():
    with pytest.raises(QrelnetError):
        enumerate_partitions([])
    with pytest.raises(CapacityError):
        enumerate_partitions([str(i) for i in range(9)])


def test_alpha_is_symmetric_with_unit_diagonal_only_at_single_block():
    cm = connectivity_matrix(["1", "2", "3", "4"])
    assert cm.alpha == tuple(zip(*cm.alpha))
    assert [row[i] for i, row in enumerate(cm.alpha)] == [int(len(p.blocks) == 1) for p in cm.order]


def test_alpha_times_beta_is_identity_exactly():
    for m in range(1, 5):
        cm = connectivity_matrix([str(i) for i in range(m)])
        n, beta = len(cm.order), cm.beta
        for i in range(n):
            for j in range(n):
                got = sum(beta[k][j] for k in range(n) if cm.alpha[i][k])
                assert got == (1 if i == j else 0)


def test_beta_entries_are_exact_fractions():
    cm = connectivity_matrix(["1", "2", "3"])
    assert all(isinstance(x, Fraction) for row in cm.beta for x in row)


def test_matrix_for_order_accepts_any_permutation():
    base = connectivity_matrix(["1", "2", "3"])
    perm = list(base.order)
    random.Random(5).shuffle(perm)
    cm = matrix_for_order(perm)
    beta, base_beta = cm.beta, base.beta
    # Same bilinear form, just relabeled indices.
    for i, p in enumerate(cm.order):
        for j, q in enumerate(cm.order):
            bi, bj = base.order.index(p), base.order.index(q)
            assert cm.alpha[i][j] == base.alpha[bi][bj]
            assert beta[i][j] == base_beta[bi][bj]


def test_matrix_for_order_rejects_incomplete_or_mixed():
    parts = enumerate_partitions(["1", "2", "3"])
    with pytest.raises(QrelnetError):
        matrix_for_order(parts[:-1])
    with pytest.raises(QrelnetError):
        matrix_for_order(parts + [parts[0]])
    with pytest.raises(QrelnetError):
        matrix_for_order([parts[0], singletons(["a", "b", "c"])])


def test_matrix_caps():
    with pytest.raises(CapacityError):
        connectivity_matrix([str(i) for i in range(8)])


def test_int64_bound_is_numpy_int64_max():
    # Written as a literal so that importing the module loads no numpy.
    assert _INT64_MAX == np.iinfo(np.int64).max


def test_beta_identities_small():
    for m in range(1, 5):
        assert_beta_identities(connectivity_matrix([str(i) for i in range(m)]))


@functools.lru_cache(maxsize=None)
def _eliminated(m):
    """Canonical order with its pairwise-merge alpha and eliminated beta."""
    parts = enumerate_partitions([str(i) for i in range(1, m + 1)])
    alpha = pairwise_merge_alpha(parts)
    return parts, alpha, invert_exact(alpha)


def _assert_matches_oracle(parts):
    base, alpha, beta = _eliminated(len(parts[0].ground_set()))
    where = [base.index(p) for p in parts]
    cm = matrix_for_order(parts)
    assert cm.order == tuple(parts)
    assert [list(row) for row in cm.alpha] == pairwise_merge_alpha(parts)
    assert [list(row) for row in cm.beta] == [[beta[i][j] for j in where] for i in where]
    assert all(type(x) is Fraction for row in cm.beta for x in row)
    assert [list(row) for row in cm.scaled] == [[int(beta[i][j] * cm.denominator) for j in where] for i in where]


@pytest.mark.parametrize("m", range(1, 7))
def test_closed_form_matches_elimination_in_canonical_and_shuffled_order(m):
    parts = enumerate_partitions([str(i) for i in range(1, m + 1)])
    _assert_matches_oracle(parts)
    random.Random(100 + m).shuffle(parts)
    _assert_matches_oracle(parts)


def test_closed_form_matches_elimination_in_reference_order():
    _assert_matches_oracle(list(M3_REFERENCE_ORDER))


@pytest.mark.parametrize("shuffle", [False, True])
def test_seven_elements_invert_exactly(shuffle):
    # Past the elimination oracle's reach: alpha @ (beta * den) = den * I,
    # as float64 products that are exact because every partial sum is an
    # integer below 2**53.
    parts = enumerate_partitions([str(i) for i in range(1, 8)])
    if shuffle:
        random.Random(107).shuffle(parts)
    cm = matrix_for_order(parts)
    alpha, scaled = (np.array(rows, dtype=np.float64) for rows in (cm.alpha, cm.scaled))
    assert np.abs(scaled).sum() < 2**53
    assert np.array_equal(alpha @ scaled, cm.denominator * np.eye(BELLS[7]))
    assert np.array_equal(alpha, alpha.T) and np.array_equal(scaled, scaled.T)
    assert_beta_identities(cm)


def test_unpack_reads_the_signed_int64_entries_of_sums():
    a = [-(2**63), 2**63 - 1, 0, -1, 1]
    b = [2**62, -(2**62), 7, 1, -1]
    c = [5, -6, 7, 0, -1]
    pa, pb, pc = (sum(v << 64 * i for i, v in enumerate(row)) for row in (a, b, c))
    assert [_unpack(x, 5) for x in (pa, pb, pc)] == [a, b, c]
    assert _unpack(pa + pb, 5) == [x + y for x, y in zip(a, b)]
    assert _unpack(pb - 3 * pc, 5) == [y - 3 * z for y, z in zip(b, c)]
    assert _unpack(0, 3) == [0, 0, 0]
    # _pack is the inverse, at the int64 extremes and 0.
    assert [_pack(row) for row in (a, b, c)] == [pa, pb, pc]
    assert _pack([0, 0, 0]) == 0
    for v in (-(2**63), 2**63 - 1, 0):
        assert _unpack(_pack([v, v]), 2) == [v, v] and _pack(_unpack(v, 1)) == v


@pytest.mark.parametrize("m", range(1, 8))
def test_contract_equals_the_int64_products(m):
    # Columns of every kind: all zero, all one, all rows but the first (more
    # than half, summed as the total less the others), the last row alone,
    # and random ones of each density.
    cm = connectivity_matrix([str(i) for i in range(1, m + 1)])
    n = len(cm.order)
    rng = random.Random(m)
    columns = [[0] * n, [1] * n, [int(i > 0) for i in range(n)], [int(i == n - 1) for i in range(n)]]
    columns += [[int(rng.random() < q) for _ in range(n)] for q in (0.2, 0.5, 0.8)]
    assert any(2 * sum(c) > n for c in columns[1:]) and not any(columns[0])
    left = [list(row) for row in zip(*columns)]
    right = [list(row) for row in zip(*columns[::-1], *columns[4:])]
    assert contract(cm, left, right) == int64_contraction(cm, left, right)


def test_weights_past_int64_are_a_capacity_error(monkeypatch):
    monkeypatch.setattr(qrelnet.partitions, "_INT64_MAX", 10**4)
    with pytest.raises(CapacityError, match="overflow int64"):
        connectivity_matrix(["1", "2", "3", "4"])


def test_a_wrong_weight_fails_the_inverse_probe(monkeypatch):
    # Read 2! as 3: partitions of three blocks get the weight den / 3, not
    # den / 2, and beta no longer inverts alpha.
    monkeypatch.setattr(qrelnet.partitions, "factorial", lambda c: math.factorial(c) + (c == 2))
    with pytest.raises(QrelnetError) as err:
        connectivity_matrix(["1", "2", "3", "4"])
    assert err.value.code == "singular_matrix"


def test_weight_pairs_are_the_nonzero_weights_row_major():
    cm = connectivity_matrix(["1", "2", "3", "4"])
    expected = [(i, j, b * cm.denominator) for i, row in enumerate(cm.beta) for j, b in enumerate(row) if b]
    pairs = list(cm.weight_pairs())
    assert pairs == expected
    assert all(type(x) is int for pair in pairs for x in pair)


def test_weight_arrays_are_read_only_and_divide_to_fraction_bits():
    # Read-only by type: tuples of int rows, alpha's entries 0 or 1.
    for m in range(1, 8):
        cm = connectivity_matrix([str(i) for i in range(1, m + 1)])
        for rows in (cm.alpha, cm.scaled):
            assert type(rows) is tuple and len(rows) == BELLS[m]
            assert all(type(row) is tuple and len(row) == BELLS[m] for row in rows)
            assert set(map(type, chain.from_iterable(rows))) == {int}
        assert set(chain.from_iterable(cm.alpha)) == ({0, 1} if m > 1 else {1})
        for n in set(chain.from_iterable(cm.scaled)):
            assert (n / cm.denominator).hex() == float(Fraction(n, cm.denominator)).hex()


def test_split_sum_weights_have_fraction_bits():
    # At five shared vertices n * (1 / den) and n / den differ for n = 5.
    cm = connectivity_matrix([str(i) for i in range(1, 6)])
    beta, size = cm.beta, len(cm.order)
    first = {}
    for i, j, n in cm.weight_pairs():
        first.setdefault(n, (i, j))
    for i, j in first.values():
        left = [float(k == i) for k in range(size)]
        right = [float(k == j) for k in range(size)]
        assert split_sum(cm, left, right).hex() == float(beta[i][j]).hex()


# Not reached by any input under the seven-element matrix cap: the int64
# bound of matrix_for_order and its inverse probe.
@pytest.mark.parametrize("fn, args, expected", [
    (bell_number, (-1,), "invalid_input"),
    (matrix_for_order, ([],), "invalid_partition"),
    (matrix_for_order, (enumerate_partitions("abcdefgh"),), "capacity"),
], ids=lambda x: getattr(x, "__name__", None))
def test_partition_guards(fn, args, expected):
    code, peak = rejection(fn, *args)
    assert code == expected and peak < 1 << 20
