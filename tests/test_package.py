"""The package's public names, which load from their home modules on first use."""

import importlib
import types

import pytest

import qrelnet

# The public API as it stood when the package imported every module eagerly,
# less ``DiagonalOperator`` (operators are plain read-only ndarrays),
# ``edge_state_to_text`` (only tests render states, with ``helpers``),
# ``random_state`` (only tests draw random states, also with ``helpers``) and
# ``vertex_partition_map`` and ``merged_name`` (``quotient`` builds its own
# blocks and names).
PUBLIC = {
    "BornEstimate", "CapacityError", "CLASSICAL", "ConnectivityMatrix", "CorrectionTerm",
    "Decomposition", "Graph", "HybridState", "MAX_EDGES", "NORM_TOL",
    "NormalizationError", "OverlapError", "Partition", "QUANTUM", "QrelnetError", "QubitSpec",
    "StateVector", "SublayerError", "SublayerResult", "WidthMismatchError", "bell_number",
    "born_sample", "canonical_decomposition", "connectivity_matrix", "contract_edge",
    "delete_edge", "edge_state_from_text", "enumerate_partitions",
    "hybrid_qr", "matrix_for_order", "o_gamma_operator", "product_state",
    "qr_operator", "qr_split_value", "qr_value", "quotient", "qubit",
    "reliability_enumerate", "reliability_factorize", "single_block", "singletons",
    "split_operator", "sublayer_qr", "tensor", "two_term_state", "union_graph", "verify_split",
}


def test_all_keeps_the_public_names():
    assert set(qrelnet.__all__) == PUBLIC
    assert len(qrelnet.__all__) == len(PUBLIC) == 47


def test_every_public_name_is_its_home_modules_object():
    for name in qrelnet.__all__:
        value = getattr(qrelnet, name)
        home = importlib.import_module(f"qrelnet.{qrelnet._HOME_OF[name]}")
        assert value is getattr(home, name), name
        if isinstance(value, (type, types.FunctionType)):  # defined there, not re-exported
            assert value.__module__ == home.__name__, name


def test_star_import_and_dir_list_the_public_names():
    namespace = {}
    exec("from qrelnet import *", namespace)
    assert PUBLIC <= set(namespace)
    assert PUBLIC <= set(dir(qrelnet))
    assert "__version__" in dir(qrelnet)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qrelnet.no_such_name
    assert not hasattr(qrelnet, "_private")


def test_submodules_still_import_through_the_package():
    from qrelnet import classical

    assert classical is importlib.import_module("qrelnet.classical")
    assert classical.reliability_enumerate is qrelnet.reliability_enumerate


def _records():
    """(build, another, repr of build()) for every immutable record type but ``StateVector``."""
    from fractions import Fraction

    from qrelnet import (CLASSICAL, QUANTUM, Graph, HybridState, Partition, QubitSpec, StateVector,
                         canonical_decomposition, connectivity_matrix)

    psi = StateVector(1, [0.6, 0.8j])
    path = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    return [
        (lambda: Graph(("a", "b"), [("a", "b")]), lambda: Graph(("a", "b"), [("b", "a")]),
         "Graph(vertices=('a', 'b'), edges=(('a', 'b'),))"),
        (lambda: Partition((("b", "a"), ("c",))), lambda: Partition((("a",), ("b", "c"))),
         "Partition(blocks=(('a', 'b'), ('c',)))"),
        (lambda: connectivity_matrix(["1", "2"]), lambda: connectivity_matrix(["2", "3"]),
         "ConnectivityMatrix(order=(Partition(blocks=(('1', '2'),)), Partition(blocks=(('1',), ('2',)))), "
         "denominator=1)"),
        (lambda: QubitSpec(0.25, 1j), lambda: QubitSpec(0.25), "QubitSpec(p=0.25, phase=1j)"),
        (lambda: canonical_decomposition(path, [QUANTUM, CLASSICAL]),
         lambda: canonical_decomposition(path, [CLASSICAL, QUANTUM]),
         "Decomposition(quantum=Graph(vertices=('a', 'b'), edges=(('a', 'b'),)), classical=Graph(vertices=('b', "
         "'c'), edges=(('b', 'c'),)), shared=('b',))"),
        (lambda: HybridState(psi, [Fraction(1, 2)]), lambda: HybridState(psi, [Fraction(1, 3)]),
         "HybridState(quantum=StateVector(num_edges=1, amplitudes=array([0.6+0.j , 0. +0.8j])), "
         "classical=(Fraction(1, 2),))"),
    ]


@pytest.mark.parametrize("build, another, text", _records(), ids=[text.split("(")[0] for *_, text in _records()])
def test_records_compare_hash_and_print_by_their_fields_and_stay_immutable(build, another, text):
    a, b, c = build(), build(), another()
    assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c and not a == c
    assert repr(a) == text
    # Only the same type compares equal: not a tuple of the fields, not a subclass.
    sub = type("Sub", (type(a),), {})
    copy = sub.__new__(sub)
    vars(copy).update(vars(a))
    assert a != tuple(vars(a).values()) and a != copy
    name = next(iter(vars(a)))
    with pytest.raises(AttributeError):
        setattr(a, name, None)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_a_connectivity_matrix_compares_its_order_and_denominator_only():
    from qrelnet import ConnectivityMatrix, connectivity_matrix

    cm = connectivity_matrix(["1", "2", "3"])
    other = ConnectivityMatrix(cm.order, cm.scaled, cm.alpha, cm.denominator)
    assert other == cm and hash(other) == hash(cm) and repr(other) == repr(cm)
    assert cm.order and cm.beta  # the reads of the benchmark's tracer


def test_a_state_vector_compares_by_identity():
    from qrelnet import StateVector

    a, b = StateVector(1, [1.0, 0.0]), StateVector(1, [1.0, 0.0])
    assert a == a and a != b and len({a, b}) == 2
    assert repr(a) == "StateVector(num_edges=1, amplitudes=array([1.+0.j, 0.+0.j]))"
    for name in ("num_edges", "amplitudes", "weights"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
