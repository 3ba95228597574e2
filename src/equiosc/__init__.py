"""Equioscillating node systems for weighted sum-of-translates minimax problems.

The library evaluates F(y, t) = J(t) + Σ r_j K(t − y_j) for a concave kernel
K and an usc external field J, computes per-interval maxima, solves the
equioscillation equations, verifies the structural properties (sandwich,
intertwining, perturbation monotonicity) numerically, and applies the
machinery to weighted extremal node products and Chebyshev constants on
unions of intervals.
"""

from .applications import (
    GapProblem,
    GapSolution,
    IntervalUnion,
    compare_constants,
    gap_eval,
    gap_interval_maxima,
    gap_norm,
    restricted_constant,
    snap_to_E,
    solve_bojanov,
    union_bound_factor,
    unrestricted_constant,
    verify_signed_equioscillation,
)
from .catalog import EXAMPLE_IDS, build_problem, closed_forms, run_reference_check
from .errors import (
    AdmissibilityError,
    BudgetError,
    ConvergenceError,
    DomainError,
    EquioscError,
    HypothesisError,
    PreconditionError,
    RegularityError,
    SchemaError,
)
from .extreal import NEG_INFINITY, ExtReal, as_extreal, is_neg_infinity
from .fields import (
    Constant,
    Formula,
    Indicator,
    LogOfWeight,
    NegInfinityPiece,
    Piece,
    PiecewiseField,
    SingularSegment,
    SqrtAffine,
    constant_field,
    field_admissible,
    field_eval,
    field_from_json,
    field_to_json,
    indicator_field,
    log_of_weight_field,
    singularity_set,
    sqrt_affine_field,
)
from .kernels import (
    CappedLog,
    CappedLogPlusQuadratic,
    KernelFlags,
    KernelSpec,
    Log,
    Regularized,
    SqrtShift,
    TentLog,
    kernel_classify,
    kernel_eval,
    kernel_values,
)
from .oracle import GridSpec, grid_maximin, grid_minimax, grid_near_optimal
from .perturbation import (
    IntertwiningVerdict,
    PartitionSpec,
    check_intertwining,
    check_interval_perturbation,
    check_strict_majorization_excluded,
    perturb_partition,
    sample_regular_nodes,
)
from .problem import NodeSystem, Problem, dump_problem, load_problem, problem_from_json, problem_to_json
from .solver import SolveReport, sandwich_check, solve_difference, solve_equioscillation
from .translates import (
    DifferenceVector,
    MaximaVector,
    difference,
    eval_F,
    eval_F_grid,
    eval_f,
    in_regularity_set,
    interval_maxima,
    maximize_on_interval,
)

__version__ = "0.1.0"
