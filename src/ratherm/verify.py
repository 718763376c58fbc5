"""Randomized exact identity testing and the stratum sampler.

Every check here is exact: a catalog identity is evaluated at random
small-height rational points and any mismatch is a hard failure carrying
the witness point.  A wrong polynomial identity survives such a trial only
on its own zero set, which is measure-tiny against the sampling pool, so a
zero-failure run over a hundred points is decisive in aggregate.

The module also hosts the stratum sampler that manufactures instances with
a prescribed defect, optionally forced to be unattainable through a chosen
node.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import (
    InfeasibleRequest,
    InternalInconsistency,
    InvalidInput,
    TooLarge,
)
from .field import RATIONALS, FieldConfig, Scalar
from .polynomial import Poly, evaluate, gcd, rational_taylor
from .problem import MAX_N, HermiteData, RationalSolution, whip_residual
from .solvers import diagonal_minor, minor_vector, solve_kernel

# Largest accepted sample_count per identity.
MAX_SAMPLES = 10_000
_POOL_NUM = 50
_POOL_DEN = 10
_MAX_ATTEMPTS = 200


def random_scalar(rng: random.Random, field: FieldConfig = RATIONALS) -> Scalar:
    """One draw from the pool a/b, |a| <= 50, 1 <= b <= 10.

    Over a prime field only the numerator is drawn; denominators would just
    reshuffle the residues.
    """
    if field.p is not None:
        return field.from_int(rng.randint(-_POOL_NUM, _POOL_NUM))
    return Fraction(rng.randint(-_POOL_NUM, _POOL_NUM), rng.randint(1, _POOL_DEN))


def random_nonzero_scalar(rng: random.Random, field: FieldConfig = RATIONALS) -> Scalar:
    while True:
        x = random_scalar(rng, field)
        if x:
            return x


def random_nodes(
    rng: random.Random, l: int, field: FieldConfig = RATIONALS
) -> tuple[Scalar, ...]:
    """Distinct nodes, collision-rejected."""
    nodes: list[Scalar] = []
    attempts = 0
    while len(nodes) < l:
        attempts += 1
        if attempts > 1000:
            raise InfeasibleRequest(f"cannot draw {l} distinct nodes from {field}")
        x = random_scalar(rng, field)
        if all(x - y for y in nodes):
            nodes.append(x)
    return tuple(nodes)


def random_data(
    rng: random.Random,
    n_vec: Sequence[int],
    k: int,
    field: FieldConfig = RATIONALS,
) -> HermiteData:
    """Unstructured instance: random distinct nodes, random Taylor data."""
    u = random_nodes(rng, len(n_vec), field)
    v = tuple(
        tuple(random_scalar(rng, field) for _ in range(ni)) for ni in n_vec
    )
    return HermiteData(u, tuple(n_vec), v, k, field)


@dataclass(frozen=True)
class IdentitySpec:
    """One closed-form identity to be tested by random exact evaluation.

    lhs and rhs both map an instance of the fixed shape (n_vec, k) to a
    scalar; the identity claims they agree everywhere.
    """

    name: str
    n_vec: tuple[int, ...]
    k: int
    lhs: Callable[[HermiteData], Scalar]
    rhs: Callable[[HermiteData], Scalar]
    sample_count: int = 100
    seed: int = 0


def check_identity(spec: IdentitySpec) -> dict:
    """Evaluate both sides at sample_count random points of Q; exact comparison.

    The report carries every counterexample as a full problem document so a
    failure can be replayed through the CLI.
    """
    if spec.sample_count < 1:
        raise InvalidInput(f"sample_count must be positive, got {spec.sample_count}")
    if spec.sample_count > MAX_SAMPLES:
        raise TooLarge(f"sample_count {spec.sample_count} exceeds {MAX_SAMPLES}")
    rng = random.Random(spec.seed)
    passes = 0
    failures = []
    for _ in range(spec.sample_count):
        data = random_data(rng, spec.n_vec, spec.k)
        left = spec.lhs(data)
        right = spec.rhs(data)
        if not (left - right):
            passes += 1
        else:
            failures.append(
                {
                    "data": data.to_json_dict(),
                    "lhs": RATIONALS.format_scalar(left),
                    "rhs": RATIONALS.format_scalar(right),
                }
            )
    return {
        "name": spec.name,
        "seed": spec.seed,
        "sample_count": spec.sample_count,
        "passes": passes,
        "failures": failures,
    }


def _diag(t: int) -> Callable[[HermiteData], Scalar]:
    return lambda data: diagonal_minor(data, t)


def _chart_sum(t: int, first: int, last: int, node: int) -> Callable[[HermiteData], Scalar]:
    """Sum of minor-vector entries first..last against rising powers of
    u_node; this evaluates one chart's candidate denominator slice at a
    node.  The slice bounds matter: entries past the lower chart's slice
    are generically nonzero and do not belong to the sum."""

    def f(data: HermiteData) -> Scalar:
        mv = minor_vector(data, t)
        piece = Poly(mv[first - 1 : last], data.field)
        return evaluate(piece, data.u[node])

    return f


def _d22_rhs(data: HermiteData) -> Scalar:
    u1, u2 = data.u
    v10, v11 = data.v[0]
    v20 = data.v[1][0]
    return v10 * v10 - v10 * v20 - u1 * v11 * v20 + u2 * v11 * v20


def _d33_rhs(data: HermiteData) -> Scalar:
    u1, u2 = data.u
    v10, v11 = data.v[0]
    v20 = data.v[1][0]
    return v10 - v20 + v11 * (u2 - u1)


def _d44_rhs(data: HermiteData) -> Scalar:
    u1, u2 = data.u
    return (u1 - u2) ** 2


def _d11_rhs(data: HermiteData) -> Scalar:
    u1, u2 = data.u
    v10 = data.v[0][0]
    v20 = data.v[1][0]
    return -(v10 * v10) * v20 * (u2 - u1) ** 2


def _chart_node1_rhs(data: HermiteData) -> Scalar:
    u1, u2 = data.u
    v10 = data.v[0][0]
    v20 = data.v[1][0]
    return (v20 - v10) * (u2 - u1)


def _chart_node2_rhs(data: HermiteData) -> Scalar:
    u1, u2 = data.u
    v11 = data.v[0][1]
    return v11 * (u1 - u2) ** 2


def _upper5_rhs(data: HermiteData) -> Scalar:
    return data.v[0][3]


def _lower5_expansion(data: HermiteData) -> Scalar:
    """The 12-term expansion up to sign; see _lower5_rhs for the sign."""
    u1 = data.u[0]
    v0, v1, v2, v3, v4 = data.v[0]
    u_2 = u1 * u1
    u_3 = u_2 * u1
    return (
        -(v1 ** 3)
        + 2 * v0 * v1 * v2
        + u_2 * v1 * v2 ** 2
        + 2 * u_3 * v2 ** 3
        - v0 ** 2 * v3
        - u_2 * v1 ** 2 * v3
        - u_2 * v0 * v2 * v3
        - 4 * u_3 * v1 * v2 * v3
        + 2 * u_3 * v0 * v3 ** 2
        + u_2 * v0 * v1 * v4
        + 2 * u_3 * v1 ** 2 * v4
        - 2 * u_3 * v0 * v2 * v4
    )


def _lower5_rhs(data: HermiteData) -> Scalar:
    """The lower chart sum of shape (5,), k = 3 equals MINUS the 12-term
    expansion under this package's sign convention.  The convention is
    pinned elsewhere (kernel membership of every minor vector plus the
    shape-(2,1) chart sums and the shape-(5,) upper chart sum, which all
    carry positive sign); no global per-matrix sign satisfies this entry
    with the opposite orientation as well, so the opposite-sign form is a
    refuted variant, kept with the test oracles.
    """
    return -_lower5_expansion(data)


def paper_identity_catalog() -> tuple[IdentitySpec, ...]:
    """Closed forms of the small-shape minors and chart sums.

    Shape (2,1) with k = 2 (so n = 3, m = 1) and shape (5,) with k = 3
    (n = 5, m = 2).  Every right-hand side was derived independently;
    natural-looking variants that do NOT hold are kept with the test
    oracles, to show that ``check_identity`` rejects them.
    """
    return (
        IdentitySpec("diag2-shape21", (2, 1), 2, _diag(2), _d22_rhs, seed=101),
        IdentitySpec("diag3-shape21", (2, 1), 2, _diag(3), _d33_rhs, seed=102),
        IdentitySpec("diag4-shape21", (2, 1), 2, _diag(4), _d44_rhs, seed=103),
        IdentitySpec("diag1-shape21", (2, 1), 2, _diag(1), _d11_rhs, seed=104),
        IdentitySpec(
            "chartsum-node1-shape21", (2, 1), 2, _chart_sum(2, 3, 4, 0),
            _chart_node1_rhs, seed=105,
        ),
        IdentitySpec(
            "chartsum-node2-shape21", (2, 1), 2, _chart_sum(2, 3, 4, 1),
            _chart_node2_rhs, seed=106,
        ),
        IdentitySpec(
            "chartsum-upper-shape5", (5,), 3, _chart_sum(4, 5, 6, 0), _upper5_rhs,
            seed=107,
        ),
        IdentitySpec(
            "chartsum-lower-shape5", (5,), 3, _chart_sum(2, 3, 4, 0), _lower5_rhs,
            seed=108,
        ),
    )


def _random_poly(
    rng: random.Random,
    field: FieldConfig,
    max_degree: int,
    exact_degree: bool = False,
    nonzero_at: Sequence[Scalar] = (),
    forbid_zero: bool = False,
) -> Optional[Poly]:
    """One polynomial draw; None when a side condition failed."""
    coeffs = [random_scalar(rng, field) for _ in range(max_degree + 1)]
    if exact_degree:
        coeffs[-1] = random_nonzero_scalar(rng, field)
    p = Poly(coeffs, field)
    if forbid_zero and p.is_zero:
        return None
    if any(not p(a) for a in nonzero_at):
        return None
    return p


def _draw_plain(
    rng: random.Random,
    n_vec: tuple[int, ...],
    k: int,
    j: int,
    field: FieldConfig,
) -> Optional[HermiteData]:
    """Data of a random coprime fraction with degree slack exactly j-1."""
    n = sum(n_vec)
    u = random_nodes(rng, len(n_vec), field)
    A = _random_poly(rng, field, k - j, exact_degree=True)
    B = _random_poly(rng, field, n - k - j + 1, nonzero_at=u)
    if A is None or B is None:
        return None
    if gcd(A, B).degree != 0:
        return None
    v = tuple(
        tuple(rational_taylor(A, B, u[i], n_vec[i])) for i in range(len(n_vec))
    )
    return HermiteData(u, n_vec, v, k, field)


def _draw_forced(
    rng: random.Random,
    n_vec: tuple[int, ...],
    k: int,
    j: int,
    field: FieldConfig,
) -> Optional[HermiteData]:
    """Unattainable data whose minimal pair shares the root x - u_{i*}.

    Build a coprime (A~, B~), multiply both by (x - mu) for a chosen node
    mu: away from mu the data is the fraction's own Taylor data; at mu the
    first n_{i*}-1 coefficients are the fraction's and the last one is
    perturbed off its true value.  The product pair still solves the
    linearized problem for any last coefficient, so it stays the minimal
    pair, and its shared root certifies unattainability through i*.
    """
    n = sum(n_vec)
    l = len(n_vec)
    star = rng.randrange(l)
    u = random_nodes(rng, l, field)
    mu = u[star]
    A_t = _random_poly(rng, field, k - j - 1, forbid_zero=True)
    B_t = _random_poly(rng, field, n - k - j, exact_degree=True, nonzero_at=u)
    if A_t is None or B_t is None:
        return None
    if gcd(A_t, B_t).degree != 0:
        return None
    v: list[tuple[Scalar, ...]] = []
    for i in range(l):
        if i != star:
            v.append(tuple(rational_taylor(A_t, B_t, u[i], n_vec[i])))
            continue
        prefix = rational_taylor(A_t, B_t, mu, n_vec[i])
        true_last = prefix[-1]
        while True:
            off = random_scalar(rng, field)
            if off - true_last:
                break
        v.append(tuple(prefix[:-1]) + (off,))
    data = HermiteData(u, n_vec, tuple(v), k, field)
    factor = Poly((-mu, field.one), field)
    pair = RationalSolution(factor * A_t, factor * B_t)
    if any(whip_residual(data, pair)):
        raise InternalInconsistency(
            "forced pair fails the linearized system it was built from"
        )
    return data


def sample_stratum(
    n_vec: Sequence[int],
    k: int,
    target_defect: int,
    force_unattainable: bool,
    seed: int,
    field: FieldConfig = RATIONALS,
) -> HermiteData:
    """Random instance with the prescribed defect.

    Plain draws realize any defect j in 1..m+1 and are solvable by
    construction; forced draws additionally plant a node root in the
    minimal denominator, which requires j <= m (with m = 0 every instance
    is solvable and the request is infeasible).  The claimed defect and
    verdict are re-derived through ``solve_kernel``, one elimination, before
    returning, and the draw is repeated on the measure-tiny misses.
    """
    n_vec = tuple(int(x) for x in n_vec)
    k = int(k)
    j = int(target_defect)
    if not n_vec or any(x < 1 for x in n_vec):
        raise InvalidInput(f"multiplicities must be positive, got {n_vec}")
    n = sum(n_vec)
    if n > MAX_N:
        raise TooLarge(f"n = {n} exceeds the cap MAX_N = {MAX_N}")
    if not 1 <= k <= n:
        raise InvalidInput(f"k must lie in 1..{n}, got {k}")
    m = min(k - 1, n - k)
    if force_unattainable:
        if not 1 <= j <= m:
            raise InfeasibleRequest(
                f"forced-unattainable defect must lie in 1..m = {m}, got {j}"
            )
    elif not 1 <= j <= m + 1:
        raise InfeasibleRequest(f"defect must lie in 1..m+1 = {m + 1}, got {j}")
    rng = random.Random(seed)
    draw = _draw_forced if force_unattainable else _draw_plain
    for _ in range(_MAX_ATTEMPTS):
        data = draw(rng, n_vec, k, j, field)
        if data is None:
            continue
        minsol, cls = solve_kernel(data)
        if cls.solvable != force_unattainable and minsol.kernel_dim == j:
            return data
    raise InternalInconsistency(
        f"sampler exhausted {_MAX_ATTEMPTS} attempts for shape {n_vec}, "
        f"k = {k}, defect {j}, forced = {force_unattainable}"
    )
