"""State vector construction, index conventions, and normalization policy."""

import math
import random

import numpy as np
import pytest

from qrelnet import (
    CapacityError,
    Graph,
    NormalizationError,
    QrelnetError,
    QubitSpec,
    StateVector,
    product_state,
    qubit,
    tensor,
    two_term_state,
)

from helpers import random_state, rejection


def test_qubit_amplitudes():
    s = qubit(QubitSpec(1.0, 1.0))
    assert np.allclose(s.amplitudes, [0.0, 1.0])
    s = qubit(QubitSpec(0.0, 1.0))
    assert np.allclose(s.amplitudes, [1.0, 0.0])
    s = qubit(QubitSpec(0.25, 1j))
    assert np.allclose(s.amplitudes, [1j * math.sqrt(0.75), 0.5])


def test_qubit_spec_validation():
    with pytest.raises(QrelnetError):
        QubitSpec(1.2, 1.0)
    with pytest.raises(QrelnetError):
        QubitSpec(0.5, 0.5 + 0j)


def test_product_state_expansion():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 6)
        specs = [QubitSpec(rng.random(), complex(math.cos(a), math.sin(a)))
                 for a in [rng.uniform(0, 2 * math.pi) for _ in range(n)]]
        psi = product_state(specs)
        # Independent expansion: product over bits of sqrt(p) or z*sqrt(q).
        for state in range(1 << n):
            amp = 1.0 + 0j
            for i, spec in enumerate(specs):
                if state >> i & 1:
                    amp *= math.sqrt(spec.p)
                else:
                    amp *= spec.phase * math.sqrt(1 - spec.p)
            assert abs(psi.amplitudes[state] - amp) <= 1e-12


def test_product_state_certain_edges():
    psi = product_state([QubitSpec(1.0), QubitSpec(1.0)])
    assert np.allclose(psi.amplitudes, [0, 0, 0, 1])
    psi = product_state([QubitSpec(0.5), QubitSpec(0.5)])
    assert np.allclose(np.abs(psi.amplitudes), [0.5, 0.5, 0.5, 0.5])


def test_product_state_caps():
    empty = product_state([])
    assert empty.num_edges == 0 and empty.amplitudes.tolist() == [1]
    with pytest.raises(CapacityError):
        product_state([QubitSpec(0.5)] * 25)


def test_two_term_state_matches_displayed_form():
    g2 = Graph(("a", "b"), (("a", "b"), ("a", "b")))
    psi1 = two_term_state(g2, 0b11, 0b00, 0.3)
    assert abs(psi1.amplitudes[0b11] - math.sqrt(0.3)) <= 1e-15
    assert abs(psi1.amplitudes[0b00] - math.sqrt(0.7)) <= 1e-15
    assert psi1.amplitudes[0b01] == psi1.amplitudes[0b10] == 0
    basis = two_term_state(g2, 0b01, 0b10, 1.0)
    assert np.allclose(basis.amplitudes, [0, 1, 0, 0])


def test_two_term_state_validation():
    g2 = Graph(("a", "b"), (("a", "b"), ("a", "b")))
    with pytest.raises(QrelnetError):
        two_term_state(g2, 0b01, 0b01, 0.5)
    with pytest.raises(QrelnetError):
        two_term_state(g2, 4, 0, 0.5)
    with pytest.raises(QrelnetError):
        two_term_state(g2, 1, 0, 1.5)
    with pytest.raises(QrelnetError):
        two_term_state(g2, 1, 0, 0.5, 2.0 + 0j)


def test_state_vector_rejects_off_norm_instead_of_fixing():
    with pytest.raises(NormalizationError):
        StateVector(1, [0.7, 0.3])
    with pytest.raises(NormalizationError):
        StateVector(1, [1.0, 1e-4])
    StateVector(1, [1.0, 0.0])


@pytest.mark.parametrize("num_edges", [3, 17])
def test_state_vector_rejects_a_nan_amplitude_in_lists_and_arrays(num_edges):
    # 3 edges are held in lists, 17 in arrays: each form has its own finiteness check.
    amplitudes = np.zeros(1 << num_edges, dtype=complex)
    amplitudes[0], amplitudes[5] = 1.0, complex(math.nan, 0.0)
    with pytest.raises(QrelnetError, match="amplitudes must be finite") as info:
        StateVector(num_edges, amplitudes)
    assert info.value.code == "invalid_state"


def test_state_vector_rejects_wrong_length():
    with pytest.raises(QrelnetError):
        StateVector(2, [1.0, 0.0])


def test_state_vector_is_immutable():
    s = StateVector(1, [1.0, 0.0])
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_tensor_index_convention():
    one = StateVector(1, [0.0, 1.0])
    zero = StateVector(1, [1.0, 0.0])
    # Left factor occupies the high bit.
    assert np.allclose(tensor(one, zero).amplitudes, [0, 0, 1, 0])
    assert np.allclose(tensor(zero, one).amplitudes, [0, 1, 0, 0])
    scalar = StateVector(0, [1.0])
    psi = random_state(3, 99)
    assert np.allclose(tensor(psi, scalar).amplitudes, psi.amplitudes)
    assert np.allclose(tensor(scalar, psi).amplitudes, psi.amplitudes)


def test_tensor_matches_product_state_concatenation():
    rng = random.Random(19)
    sa = [QubitSpec(rng.random()) for _ in range(2)]
    sb = [QubitSpec(rng.random()) for _ in range(3)]
    joint = tensor(product_state(sa), product_state(sb))
    assert np.allclose(joint.amplitudes, product_state(sb + sa).amplitudes)


def test_tensor_associative_and_capped():
    a, b, c = random_state(2, 1), random_state(2, 2), random_state(1, 3)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.allclose(left.amplitudes, right.amplitudes)
    with pytest.raises(CapacityError):
        tensor(random_state(13, 4), random_state(12, 5))


def test_random_state_determinism_and_norm():
    a = random_state(4, 123)
    b = random_state(4, 123)
    c = random_state(4, 124)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    assert abs(np.linalg.norm(a.amplitudes) - 1.0) <= 1e-10


@pytest.mark.parametrize("fn, args", [
    (StateVector, (25, np.zeros(1))),
    (random_state, (25, 0)),
], ids=lambda x: getattr(x, "__name__", None))
def test_state_caps_raise_before_allocating(fn, args):
    code, peak = rejection(fn, *args)
    assert code == "capacity" and peak < 1 << 20
