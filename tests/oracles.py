"""Test oracles: closed forms checked against the package, kept out of it.

``b1_closed_form_check`` compares the codimension-1 closed form for shape
(2,1) with the rank classifier; ``disputed_variants`` are three natural
but wrong transcriptions of catalog identities, for showing that
``check_identity`` rejects false identities; ``specialized_vandermonde_data``
is the substitution under which the main matrix becomes a confluent
Vandermonde matrix.
"""

import math
from dataclasses import replace

from ratherm import HermiteData, classify_by_rank, paper_identity_catalog
from ratherm.errors import ShapeMismatch
from ratherm.field import RATIONALS


def b1_closed_form_check(data: HermiteData) -> bool:
    """Shape (2,1), k = 2 only: compare the closed-form membership predicate
    for the codimension-1 stratum against the rank classifier's verdict.

    The stratum is {v10 = v20, v11 != 0} union {v11 = 0, v10 != v20}: equal
    constant targets with a nonzero slope cannot be matched by a degree-1
    over degree-1 fraction that stays finite at both nodes, and a zero slope
    with distinct targets forces the denominator to vanish at a node.
    """
    if data.n_vec != (2, 1) or data.k != 2:
        raise ShapeMismatch(f"closed form holds for shape (2,1), k=2; got {data!r}")
    v10, v11 = data.v[0]
    v20 = data.v[1][0]
    same_value = not (v10 - v20)
    predicted = (same_value and bool(v11)) or (not v11 and not same_value)
    return predicted == classify_by_rank(data).unattainable


def disputed_variants():
    """Known-wrong closed forms for three catalog entries.

    ``diag3-shape21-variant`` assigns Delta_{3,3} the value of its neighbor
    Delta_{4,4}; ``diag1-shape21-variant`` claims Delta_{1,1} vanishes
    identically; ``chartsum-lower-shape5-variant`` carries the true 12-term
    expansion with the opposite global sign.  Each keeps the left side and
    the seed of its catalog entry; all are refuted by random evaluation.
    """
    catalog = {spec.name: spec for spec in paper_identity_catalog()}
    lower = catalog["chartsum-lower-shape5"]
    return (
        replace(
            catalog["diag3-shape21"], name="diag3-shape21-variant",
            rhs=lambda data: (data.u[1] - data.u[0]) ** 2,
        ),
        replace(
            catalog["diag1-shape21"], name="diag1-shape21-variant",
            rhs=lambda data: data.field.zero,
        ),
        replace(lower, name="chartsum-lower-shape5-variant", rhs=lambda data: -lower.rhs(data)),
    )


def specialized_vandermonde_data(u, n_vec, k: int, field=RATIONALS) -> HermiteData:
    """The substitution v_{i,j} = -C(k, j) u_i^(k-j) at given nodes.

    Under it the full n x (n+1) matrix becomes the confluent Vandermonde
    matrix of the monomials 1, x, ..., x^n (rows scaled by 1/j!), because
    -sum_t C(l,t) v_{i,j-t} u_i^(l-t) collapses via the Vandermonde
    convolution to C(k+l, j) u_i^(k+l-j).  Appending the row
    (1, x, ..., x^n) to that matrix gives a determinant proportional to
    prod (x - u_i)^(n_i), which is what the acceptance suite checks.
    """
    n_vec = tuple(int(x) for x in n_vec)
    u = tuple(field.coerce(x) for x in u)
    v = tuple(
        tuple(
            field.zero if j > k else -field.from_int(math.comb(k, j)) * u[i] ** (k - j)
            for j in range(ni)
        )
        for i, ni in enumerate(n_vec)
    )
    return HermiteData(u, n_vec, v, k, field)
