"""Classical and quantum all-terminal network reliability.

Exact partition-lattice splitting of the reliability operator, classical
reliability by enumeration or deletion/contraction, hybrid and sublayer
networks, and Born-rule sampling.
"""

from .classical import reliability_enumerate, reliability_factorize
from .errors import (
    CapacityError,
    NormalizationError,
    OverlapError,
    QrelnetError,
    SublayerError,
    WidthMismatchError,
)
from .graphs import (
    MAX_EDGES,
    Graph,
    contract_edge,
    delete_edge,
    edge_state_from_text,
    edge_state_to_text,
    merged_name,
    quotient,
    vertex_partition_map,
)
from .hybrid import (
    CLASSICAL,
    QUANTUM,
    CorrectionTerm,
    Decomposition,
    HybridState,
    SublayerResult,
    canonical_decomposition,
    hybrid_qr,
    sublayer_qr,
)
from .operators import (
    BornEstimate,
    DiagonalOperator,
    born_sample,
    o_gamma_operator,
    qr_operator,
    qr_split_value,
    qr_value,
    split_operator,
    union_graph,
    verify_split,
)
from .partitions import (
    ConnectivityMatrix,
    Partition,
    bell_number,
    connectivity_matrix,
    enumerate_partitions,
    matrix_for_order,
    single_block,
    singletons,
)
from .states import (
    NORM_TOL,
    QubitSpec,
    StateVector,
    product_state,
    qubit,
    random_state,
    tensor,
    two_term_state,
)

__version__ = "0.1.0"

__all__ = [
    "BornEstimate",
    "CapacityError",
    "CLASSICAL",
    "ConnectivityMatrix",
    "CorrectionTerm",
    "Decomposition",
    "DiagonalOperator",
    "Graph",
    "HybridState",
    "MAX_EDGES",
    "NORM_TOL",
    "NormalizationError",
    "OverlapError",
    "Partition",
    "QUANTUM",
    "QrelnetError",
    "QubitSpec",
    "StateVector",
    "SublayerError",
    "SublayerResult",
    "WidthMismatchError",
    "bell_number",
    "born_sample",
    "canonical_decomposition",
    "connectivity_matrix",
    "contract_edge",
    "delete_edge",
    "edge_state_from_text",
    "edge_state_to_text",
    "enumerate_partitions",
    "hybrid_qr",
    "matrix_for_order",
    "merged_name",
    "o_gamma_operator",
    "product_state",
    "qr_operator",
    "qr_split_value",
    "qr_value",
    "quotient",
    "qubit",
    "random_state",
    "reliability_enumerate",
    "reliability_factorize",
    "single_block",
    "singletons",
    "split_operator",
    "sublayer_qr",
    "tensor",
    "two_term_state",
    "union_graph",
    "verify_split",
    "vertex_partition_map",
]
