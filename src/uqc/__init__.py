"""Uncertainty propagation on tensor quadrature grids.

Models are small scalar programs compiled to a bipartite computational
graph of elementary operations.  A dependency-signature transformation
pass rewrites the graph so that on a full tensor grid every operation is
evaluated only on the distinct points of the input subspace it actually
depends on, with explicit broadcast nodes carrying values between
subspaces.  On top of the two evaluation engines sit the usual
uncertainty-quantification estimators: quadrature-projected and regression
polynomial chaos, tensor-grid collocation, and Monte Carlo.
"""

from .basis import PceBasis, enumerate_basis
from .distributions import Distribution, Normal, Uniform
from .dsl import isomorphic, parse_model, parse_model_file, pretty_print
from .engine import (
    EvaluationReport,
    evaluate_amtc,
    evaluate_naive,
    evaluate_on_samples,
    evaluate_single_point,
    expand_tensor,
)
from .graph import Graph, GraphBuilder, OperationNode, VariableNode, topo_sort, validate
from .methods import (
    PceCoefficients,
    SurrogateSC,
    UqResult,
    evaluate_pce,
    moments_from_pce,
    monte_carlo,
    nipc_integration,
    nipc_regression,
    sc_build,
    sc_eval,
    sc_moments,
)
from .models import BUILTIN_SOURCES, builtin_model
from .quadrature import (
    QuadratureRule1D,
    TensorGrid,
    gauss_rule,
    grid_for,
    grid_input_vector,
    tensor_grid,
)
from .transform import (
    TransformedGraph,
    compute_influence_matrix,
    influence_matrix_to_csv,
    insert_expansions,
    partition_operations,
    scheduled_eval_counts,
    strip_expansions,
    to_dot,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_SOURCES",
    "Distribution",
    "EvaluationReport",
    "Graph",
    "GraphBuilder",
    "Normal",
    "OperationNode",
    "PceBasis",
    "PceCoefficients",
    "QuadratureRule1D",
    "SurrogateSC",
    "TensorGrid",
    "TransformedGraph",
    "Uniform",
    "UqResult",
    "VariableNode",
    "builtin_model",
    "compute_influence_matrix",
    "enumerate_basis",
    "evaluate_amtc",
    "evaluate_naive",
    "evaluate_on_samples",
    "evaluate_pce",
    "evaluate_single_point",
    "expand_tensor",
    "gauss_rule",
    "grid_for",
    "grid_input_vector",
    "influence_matrix_to_csv",
    "insert_expansions",
    "isomorphic",
    "moments_from_pce",
    "monte_carlo",
    "nipc_integration",
    "nipc_regression",
    "parse_model",
    "parse_model_file",
    "partition_operations",
    "pretty_print",
    "sc_build",
    "sc_eval",
    "sc_moments",
    "scheduled_eval_counts",
    "strip_expansions",
    "tensor_grid",
    "to_dot",
    "topo_sort",
    "validate",
]
