"""The three solution routes and the minimal-solution machinery.

Every route answers the same question about (u, v, k): does a fraction A/B
with deg A <= k-1, deg B <= n-k meet all the prescribed Taylor data with B
nonvanishing at the nodes?  The linearized problem always has nontrivial
solutions; they form ``C(x) * (A0, B0)`` for a minimal pair (A0, B0) unique
up to a constant, and the original problem is solvable exactly when
gcd(A0, B0) = 1, which holds exactly when B0 vanishes at no node.  The
defect j of the data is the kernel dimension of the main matrix,
equivalently s0 + 1 where s0 = min(k-1-deg A0, n-k-deg B0); unattainable
data sits in the odd-codimension stratum indexed by its defect.

Routes, each finding the minimal pair its own way, as two int lists, and
then handing it to ``_classify``, which boxes it once and runs the node
test on the ints.  Each returns the (MinimalSolution, Classification) that
``_classify`` builds, so two routes agree exactly when their answers are
equal.  The answer is cached on the instance, keyed by the canonical pair
(``_canonical``: the ints up to scale, trailing zeros stripped).  That is
exact: every value ``_classify`` builds or checks is a function of the
instance and the pair up to scale, and a pair that differs in any
coefficient has another key and is classified on its own.  Each route
still finds its own pair and checks its own dimension law:

- ``solve_kernel``: one elimination of the main matrix gives the defect,
  its number of free columns, and the pair, the kernel vector of its first
  free column.
- ``solve_eea``: extended Euclidean run on (node polynomial, confluent
  interpolant), stopped at the first remainder of degree <= k-1; that
  remainder and its Bezout cofactor are the minimal pair.
- ``solve_minors``: closed-form minimal pairs sliced out of a signed-minor
  vector, the chart selected by which square minor on the diagonal is
  nonzero at the main matrix's nullity (below it every one vanishes).
  Both the chart test and the slice hold up to scale, so the vector stays
  an int kernel vector and is never boxed.

Minor indexing: ``minor_vector(data, t)`` is the tuple of signed maximal
minors Delta_{t,i} of the n x (n+1) matrix with degree bounds (t-1, n-t),
with Delta_{t,i} at position i-1.  The sign convention is
Delta_{t,i} = (-1)^(t+i) det(delete column i), which makes each vector a
kernel member at full rank and matches every closed form the identity
catalog checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import InternalInconsistency
from .field import Scalar
from .linalg import _eliminate, _kernel_vector, _minors_and_rank, determinant
from .polynomial import Poly, _box, _ints, _remainders, hermite_interpolant, product_F
from .problem import HermiteData, RationalSolution, build_matrix, rhip_check, witness_nodes


@dataclass(frozen=True)
class MinimalSolution:
    """The lowest-degree nontrivial pair solving the linearized problem.

    Normalized so A0 is monic (B0 monic when A0 = 0).  s0 is
    min(k-1-deg A0, n-k-deg B0); the full solution space is C(x) * (A0, B0)
    over deg C <= s0, so its dimension is kernel_dim = s0 + 1.  One of the
    two degree slots is always tight.
    """

    A0: Poly
    B0: Poly
    s0: int
    kernel_dim: int

    @classmethod
    def from_pair(cls, data: HermiteData, A: list, B: list) -> "MinimalSolution":
        """The pair of int lists (A, B), residues up to sign over GF(p), each
        coefficient boxed once as x / lead, lead that of A (of B when A = 0)."""
        unit = next((x for P in (A, B) for x in reversed(P) if x), 0)
        if not unit:
            raise InternalInconsistency("zero pair offered as minimal solution")
        A0, B0 = (Poly._trimmed(_box(data.field, P, unit), data.field) for P in (A, B))
        dA, dB = A0.degree, B0.degree
        s0 = min(data.k - 1 - dA, data.n - data.k - dB)
        if s0 < 0:
            raise InternalInconsistency(
                f"minimal pair degrees ({dA}, {dB}) break the bounds of {data!r}"
            )
        return cls(A0, B0, s0, s0 + 1)


@dataclass(frozen=True)
class Solvable:
    """The problem has the (unique) solution sol.A / sol.B."""

    sol: RationalSolution

    @property
    def solvable(self) -> bool:
        return True


@dataclass(frozen=True)
class Unattainable:
    """No solution exists; the data lies in the stratum of its defect.

    ``stratum_j`` is the defect (kernel dimension).  It lies in 1..m+1
    whenever both components of the minimal pair are nonzero; data forcing
    a zero minimal numerator can push it as high as n-k.  ``witness_nodes``
    are the 0-based indices where the minimal denominator vanishes.
    """

    stratum_j: int
    witness_nodes: tuple[int, ...]

    @property
    def solvable(self) -> bool:
        return False


Classification = Union[Solvable, Unattainable]


def _minors(data: HermiteData, t: int) -> tuple[list[int], int, int]:
    """``_minors_and_rank`` of the (t-1, n-t) matrix: the minor vector of t
    up to the sign (-1)^(t+1), as ints over a scale, and the rank."""
    return _minors_and_rank(build_matrix(data, t - 1, data.n - t))


def minor_vector(data: HermiteData, t: int) -> tuple:
    """The signed minor vector (Delta_{t,1}, ..., Delta_{t,n+1})."""
    if not 0 <= t <= data.n + 1:
        raise InternalInconsistency(f"minor family index t = {t} outside 0..n+1")
    ints, scale, _ = _minors(data, t)
    return tuple(_box(data.field, ints, scale if t % 2 else -scale))


def diagonal_minor(data: HermiteData, t: int) -> Scalar:
    """Delta_{t,t}: delete column t from the (t-1, n-t) matrix and take det.

    Column t is that matrix's last left column, so deleting it leaves the
    (t-2, n-t) member.  The alternating signs cancel on the diagonal, so no
    sign is applied.
    """
    if not 1 <= t <= data.n + 1:
        raise InternalInconsistency(f"diagonal minor index t = {t} outside 1..n+1")
    return determinant(build_matrix(data, t - 2, data.n - t))


def _canonical(data: HermiteData, A: list, B: list) -> tuple[tuple, tuple]:
    """The int pair (A, B) up to scale: over Q divided by gcd(*A, *B), signed
    so that ``from_pair``'s unit is positive; over GF(p) times the unit's
    inverse, so that it is 1.  Each side's trailing zeros are stripped."""
    p = data.field.p
    unit = next((x for P in (A, B) for x in reversed(P) if x), 0)
    if not unit:
        raise InternalInconsistency("zero pair offered as minimal solution")
    g = (math.gcd(*A, *B) if unit > 0 else -math.gcd(*A, *B)) if p is None else pow(unit, -1, p)
    key = []
    for P in (A, B):
        P = [x // g for x in P] if p is None else [x * g % p for x in P]
        while P and not P[-1]:
            P.pop()
        key.append(tuple(P))
    return tuple(key)


def _classify(data: HermiteData, A: list, B: list) -> tuple[MinimalSolution, Classification]:
    """``_classify_once`` of the canonical pair, computed on the first route
    that offers it and cached on the instance."""
    if data._answers is None:
        object.__setattr__(data, "_answers", {})
    key = _canonical(data, A, B)
    if key not in data._answers:
        data._answers[key] = _classify_once(data, *key)
    return data._answers[key]


def _classify_once(data: HermiteData, A, B) -> tuple[MinimalSolution, Classification]:
    """The minimal solution of a route's int pair (A, B), and the node test
    of that pair, per the solvability criterion.

    B0(u_i) = 0 forces A0(u_i) = 0, since A0 = B0 G mod (x - u_i)^(n_i); a
    common factor of A0 and B0 free of node roots would divide out and
    leave a smaller pair.  So gcd(A0, B0) = 1 exactly when B0 has no node
    root, and the witnesses are the whole test.
    """
    minsol = MinimalSolution.from_pair(data, A, B)
    wits = witness_nodes(data, B)
    if not wits:
        sol = RationalSolution(minsol.A0, minsol.B0)
        if not rhip_check(data, sol):
            raise InternalInconsistency(
                f"coprime minimal pair fails the original problem on {data!r}"
            )
        return minsol, Solvable(sol)
    if not set(wits) <= set(witness_nodes(data, A)):
        raise InternalInconsistency(
            f"minimal denominator vanishes at a node where A0 does not on {data!r}"
        )
    return minsol, Unattainable(minsol.kernel_dim, wits)


def solve_kernel(data: HermiteData) -> tuple[MinimalSolution, Classification]:
    """Null-space route, on one elimination of the main matrix.

    The kernel of the main (k-1, n-k) matrix is C(x) (A0, B0) over
    deg C < d, d the defect, and B0 is never zero.  With the columns in
    natural order (A's coefficients, then B's) the last nonzero coordinate
    of C (A0, B0) is B's coefficient of degree deg C + deg B0, so the free
    columns are exactly the right columns deg B0 .. deg B0 + d-1.  The
    kernel vector of the first of them, zero at the others, has deg C = 0:
    it is the pair, at every defect.  When d > k, A0 = 0.
    """
    k, n = data.k, data.n
    M = build_matrix(data, k - 1, n - k)
    rows, pivots, last, _, _ = _eliminate(M)
    taken = set(pivots)
    free = [c for c in range(M.c) if c not in taken]
    d, f = len(free), free[0]
    if f < k or free != list(range(f, f + d)):
        raise InternalInconsistency(
            f"free columns {free} of the main matrix are not a run of right "
            f"columns on {data!r}"
        )
    vec = _kernel_vector(M, rows, pivots, last, f)
    minsol, cls = _classify(data, vec[:k], vec[k:])
    if minsol.kernel_dim != d:
        raise InternalInconsistency(
            f"dimension law broken: s0+1 = {minsol.kernel_dim}, "
            f"kernel has {d} vectors"
        )
    return minsol, cls


def solve_eea(data: HermiteData) -> tuple[MinimalSolution, Classification]:
    """Euclidean route.

    F = prod (x - u_i)^(n_i), G = the confluent interpolant of the data.
    Euclid on (F, G) runs only until the remainder has degree <= k-1; that
    row's remainder and Bezout cofactor T are the minimal pair, and only T
    is carried.  A zero remainder (G = 0, or F and G sharing a factor of
    degree >= k) also ends the run, with the same meaning.  The run is
    ``_remainders`` on ints, stopped there; over Q on L G, L the lcm of G's
    denominators (1 over GF(p)), so the pair for G is (R, L T), and
    ``_classify`` normalizes it as the other routes' pairs.
    """
    G = hermite_interpolant(data)
    F = product_F(data)
    if not G.degree < F.degree:
        raise InternalInconsistency(
            f"interpolant degree {G.degree} reached n = {F.degree}"
        )
    F_int, (G_int, L) = _ints(data.field, F.coeffs)[0], _ints(data.field, G.coeffs)
    rows = _remainders(F_int, G_int, data.field.p, True)
    R, T = next((P, T) for P, _, T, _, _ in rows if len(P) <= data.k)
    return _classify(data, R, [L * c for c in T])


def find_defect(data: HermiteData) -> tuple[int, bool, list[int]]:
    """The defect j, whether its chart is the upper one, and that chart's
    minor vector as ints, up to scale.

    j is the nullity (n+1) - r of the main (t = k) matrix, r read off the
    elimination of its vector: the defect is the kernel dimension.  For
    j' < j, zeroing the top j' coefficients of A (of B) leaves j - j' >= 1
    kernel dimensions on the columns of Delta_{k-j'+1,k-j'+1}
    (Delta_{k+j',k+j'}), so both vanish; at j one of them is nonzero, or
    the data contradicts the theory (``InternalInconsistency``).  The lower
    one is the diagonal entry of the t = k-j+1 vector, the upper one the
    last entry of the t = k+j-1 vector up to sign, and at j = 1 both read
    the main vector.  The upper chart is eliminated only when the lower
    certificate vanishes, and only it exists above m+1, where the minimal
    numerator is zero.
    """
    k, n = data.k, data.n
    main, _, r = _minors(data, k)
    j = n + 1 - r
    if j <= data.m + 1:
        low = main if j == 1 else _minors(data, k - j + 1)[0]
        if low[k - j]:
            return j, False, low
    up = main if j == 1 else _minors(data, k + j - 1)[0]
    if up[n]:
        return j, True, up
    raise InternalInconsistency(f"no nonzero chart certificate at the defect {j} on {data!r}")


def chart_pair(data: HermiteData, j: int, upper: bool, vec) -> tuple:
    """The closed-form candidate pair of defect j from one chart, as two
    slices of vec, up to a common scale.

    vec is the chart's minor vector, up to scale: ``find_defect``'s ints,
    or ``minor_vector(data, t)``.  Lower chart (certificate
    Delta_{k-j+1,k-j+1}): slice the t = k-j+1 vector into A over
    l = 0..k-j and B over l = k-j+1..n-2j+2; entries above that must
    vanish.  Upper chart (certificate Delta_{k+j,k+j}): t = k+j-1, A over
    l = 0..k-j, a forced-zero gap l = k-j+1..k+j-2, B over l = k+j-1..n.
    The gap/tail checks are only enforced when the chart's certificate is
    nonzero; with a zero certificate the sliced pair must itself be
    identically zero, and is returned for the caller to observe.

    For j > m+1 only the upper chart exists; its A slice is empty (the
    minimal numerator is identically zero) and the gap covers everything
    below the B block.
    """
    k, n = data.k, data.n
    # the lower chart's certificate is its diagonal entry, the upper one's
    # this vector's last entry up to sign
    cert = vec[n] if upper else vec[k - j]
    A = vec[: max(k - j + 1, 0)]
    if upper:
        B, dead = vec[k + j - 1 :], vec[max(k - j + 1, 0) : k + j - 1]
    else:
        B, dead = vec[k - j + 1 : n - 2 * j + 3], vec[n - 2 * j + 3 :]
    if cert and any(dead):
        raise InternalInconsistency(
            f"minor vector t = {k + j - 1 if upper else k - j + 1} has support "
            f"outside the defect-{j} chart slices on {data!r}"
        )
    return A, B


def solve_minors(data: HermiteData) -> tuple[MinimalSolution, Classification]:
    """Closed-form route via signed-minor vectors.

    The defect is the main matrix's nullity, certified by a nonzero
    diagonal minor of one chart; the minimal pair is that chart's slice of
    its int minor vector, which ``_classify`` takes as it is.
    """
    j, upper, vec = find_defect(data)
    minsol, cls = _classify(data, *chart_pair(data, j, upper, vec))
    if minsol.kernel_dim != j:
        raise InternalInconsistency(
            f"chart defect {j} disagrees with degree count {minsol.kernel_dim}"
        )
    return minsol, cls
