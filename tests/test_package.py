"""The package's public names, which load from their home modules on first use."""

import importlib
import types

import pytest

import qrelnet

# The public API as it stood when the package imported every module eagerly.
PUBLIC = {
    "BornEstimate", "CapacityError", "CLASSICAL", "ConnectivityMatrix", "CorrectionTerm",
    "Decomposition", "DiagonalOperator", "Graph", "HybridState", "MAX_EDGES", "NORM_TOL",
    "NormalizationError", "OverlapError", "Partition", "QUANTUM", "QrelnetError", "QubitSpec",
    "StateVector", "SublayerError", "SublayerResult", "WidthMismatchError", "bell_number",
    "born_sample", "canonical_decomposition", "connectivity_matrix", "contract_edge",
    "delete_edge", "edge_state_from_text", "edge_state_to_text", "enumerate_partitions",
    "hybrid_qr", "matrix_for_order", "merged_name", "o_gamma_operator", "product_state",
    "qr_operator", "qr_split_value", "qr_value", "quotient", "qubit", "random_state",
    "reliability_enumerate", "reliability_factorize", "single_block", "singletons",
    "split_operator", "sublayer_qr", "tensor", "two_term_state", "union_graph", "verify_split",
    "vertex_partition_map",
}


def test_all_keeps_the_public_names():
    assert set(qrelnet.__all__) == PUBLIC
    assert len(qrelnet.__all__) == len(PUBLIC)


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
