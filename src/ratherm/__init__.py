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
)
from .linalg import (
    ExactMatrix,
    determinant,
    kernel_basis,
    rank,
    signed_minors,
)
from .polynomial import (
    MINUS_INFINITY,
    EEARow,
    Poly,
    eea,
    evaluate,
    gcd,
    hermite_interpolant,
    product_F,
    rational_taylor,
    taylor_prefix,
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
    classify_by_rank,
    stratum_equations,
)
from .verify import (
    IdentitySpec,
    check_identity,
    paper_identity_catalog,
    sample_stratum,
)

__version__ = "0.1.0"

# The names the README documents; everything imported above stays importable.
__all__ = [
    "FieldConfig",
    "HermiteData",
    "TooLarge",
    "check_identity",
    "classify_by_rank",
    "diagonal_minor",
    "eea",
    "hermite_interpolant",
    "minor_vector",
    "paper_identity_catalog",
    "product_F",
    "sample_stratum",
    "solve_eea",
    "solve_kernel",
    "solve_minors",
]
