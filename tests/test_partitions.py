"""Partition canonical form, enumeration order, and the exact inverse."""

import functools
import random
from fractions import Fraction

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
from qrelnet.partitions import M3_REFERENCE_ORDER
from qrelnet.operators import split_sum
from helpers import assert_beta_identities, invert_exact, pairwise_merge_alpha

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
    assert np.array_equal(cm.alpha, cm.alpha.T)
    assert cm.alpha.diagonal().tolist() == [int(p.num_blocks == 1) for p in cm.order]


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
    assert cm.alpha.tolist() == pairwise_merge_alpha(parts)
    assert [list(row) for row in cm.beta] == [[beta[i][j] for j in where] for i in where]
    assert all(type(x) is Fraction for row in cm.beta for x in row)
    assert cm.scaled.tolist() == [[int(beta[i][j] * cm.denominator) for j in where] for i in where]


@pytest.mark.parametrize("m", range(1, 7))
def test_closed_form_matches_elimination_in_canonical_and_shuffled_order(m):
    parts = enumerate_partitions([str(i) for i in range(1, m + 1)])
    _assert_matches_oracle(parts)
    random.Random(100 + m).shuffle(parts)
    _assert_matches_oracle(parts)


def test_closed_form_matches_elimination_in_reference_order():
    _assert_matches_oracle(list(M3_REFERENCE_ORDER))


def test_weight_pairs_are_the_nonzero_weights_row_major():
    cm = connectivity_matrix(["1", "2", "3", "4"])
    expected = [(i, j, b * cm.denominator) for i, row in enumerate(cm.beta) for j, b in enumerate(row) if b]
    pairs = list(cm.weight_pairs())
    assert pairs == expected
    assert all(type(x) is int for pair in pairs for x in pair)


def test_weight_arrays_are_read_only_and_divide_to_fraction_bits():
    for m in range(1, 8):
        cm = connectivity_matrix([str(i) for i in range(1, m + 1)])
        for array, dtype in ((cm.alpha, np.uint8), (cm.scaled, np.int64)):
            assert array.dtype == dtype and not array.flags.writeable
        for n in set(cm.scaled.ravel().tolist()):
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
