"""Exact rational Hermite interpolation: solvers, strata, verification.

The problem: given nodes u_1..u_l with multiplicities n_i (n = sum n_i), a
degree split k, and Taylor targets v_{i,j}, find a fraction A/B with
deg A <= k-1, deg B <= n-k, (A/B)^(j)(u_i) = j! v_{i,j}, and B nonvanishing
at every node.  Some data admits no such fraction even though the
linearized problem always has nontrivial solutions; this package solves
the solvable instances by three independent exact routes and classifies
the unattainable ones into strata indexed by the kernel dimension of the
underlying structured matrix.
"""

from .errors import (
    BadIndex,
    BothZero,
    CharacteristicTooSmall,
    DivisionByZero,
    DuplicateNodes,
    InfeasibleRequest,
    InternalInconsistency,
    InvalidInput,
    MixedFields,
    RathermError,
    ShapeMismatch,
    TooLarge,
    ZeroInput,
)
from .field import (
    RATIONALS,
    FieldConfig,
    PrimeFieldElement,
    Scalar,
    binomial,
    infer_field,
    pochhammer,
)
from .linalg import (
    ExactMatrix,
    MinorVector,
    determinant,
    kernel_basis,
    rank,
    rref,
    signed_minors,
)
from .polynomial import (
    MINUS_INFINITY,
    EEARow,
    Poly,
    derivative,
    eea,
    evaluate,
    gcd,
    hermite_interpolant,
    product_F,
    rational_taylor,
    taylor_prefix,
    terminal_row,
)
from .problem import (
    HermiteData,
    RationalSolution,
    build_matrix,
    build_submatrix_i,
    rhip_check,
    whip_residual,
)
from .solvers import (
    Classification,
    MinimalSolution,
    Solvable,
    Unattainable,
    diagonal_minor,
    minor_vector,
    solve_eea,
    solve_kernel,
    solve_minors,
)
from .strata import (
    StratumReport,
    b1_closed_form_check,
    classify_by_rank,
    stratum_equations,
)
from .verify import (
    IdentitySpec,
    brute_force_kernel,
    check_identity,
    disputed_variants,
    paper_identity_catalog,
    sample_stratum,
)

__version__ = "0.1.0"

__all__ = [
    "BadIndex",
    "BothZero",
    "CharacteristicTooSmall",
    "Classification",
    "DivisionByZero",
    "DuplicateNodes",
    "EEARow",
    "ExactMatrix",
    "FieldConfig",
    "HermiteData",
    "IdentitySpec",
    "InfeasibleRequest",
    "InternalInconsistency",
    "InvalidInput",
    "MINUS_INFINITY",
    "MinimalSolution",
    "MinorVector",
    "MixedFields",
    "Poly",
    "PrimeFieldElement",
    "RATIONALS",
    "RathermError",
    "RationalSolution",
    "Scalar",
    "ShapeMismatch",
    "Solvable",
    "StratumReport",
    "TooLarge",
    "Unattainable",
    "ZeroInput",
    "b1_closed_form_check",
    "binomial",
    "brute_force_kernel",
    "build_matrix",
    "build_submatrix_i",
    "check_identity",
    "classify_by_rank",
    "derivative",
    "determinant",
    "diagonal_minor",
    "disputed_variants",
    "eea",
    "evaluate",
    "gcd",
    "hermite_interpolant",
    "infer_field",
    "kernel_basis",
    "minor_vector",
    "paper_identity_catalog",
    "pochhammer",
    "product_F",
    "rank",
    "rational_taylor",
    "rhip_check",
    "rref",
    "sample_stratum",
    "signed_minors",
    "solve_eea",
    "solve_kernel",
    "solve_minors",
    "stratum_equations",
    "taylor_prefix",
    "terminal_row",
    "whip_residual",
]
