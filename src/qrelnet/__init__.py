"""Classical and quantum all-terminal network reliability.

Exact partition-lattice splitting of the reliability operator, classical
reliability by enumeration or deletion/contraction, hybrid and sublayer
networks, and Born-rule sampling.

The public names below load on first use (PEP 562): ``import qrelnet``
imports neither numpy nor any submodule, and ``qrelnet.qr_value`` imports
``qrelnet.operators`` and returns its ``qr_value``.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "classical": ("reliability_enumerate", "reliability_factorize"),
    "errors": ("CapacityError", "NormalizationError", "OverlapError", "QrelnetError",
               "SublayerError", "WidthMismatchError"),
    "graphs": ("MAX_EDGES", "Graph", "contract_edge", "delete_edge", "edge_state_from_text",
               "edge_state_to_text", "merged_name", "quotient", "vertex_partition_map"),
    "hybrid": ("CLASSICAL", "QUANTUM", "CorrectionTerm", "Decomposition", "HybridState",
               "SublayerResult", "canonical_decomposition", "hybrid_qr", "sublayer_qr"),
    "operators": ("BornEstimate", "DiagonalOperator", "born_sample", "o_gamma_operator",
                  "qr_operator", "qr_split_value", "qr_value", "split_operator", "union_graph",
                  "verify_split"),
    "partitions": ("ConnectivityMatrix", "Partition", "bell_number", "connectivity_matrix",
                   "enumerate_partitions", "matrix_for_order", "single_block", "singletons"),
    "states": ("NORM_TOL", "QubitSpec", "StateVector", "product_state", "qubit", "random_state",
               "tensor", "two_term_state"),
}
# Public name -> the submodule that defines it.
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    # Not cached in this namespace, so the package always hands out what the
    # home module holds now.
    try:
        module = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
