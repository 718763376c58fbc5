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

Routes, each finding the minimal pair its own way and then applying the
node test of ``_classify_minimal``:

- ``solve_kernel``: one elimination of the main matrix gives the defect,
  its number of free columns, and the pair, the kernel vector of its first
  free column.
- ``solve_eea``: extended Euclidean run on (node polynomial, confluent
  interpolant), stopped at the first remainder of degree <= k-1; that
  remainder and its Bezout cofactor are the minimal pair.
- ``solve_minors``: closed-form minimal pairs sliced out of signed-minor
  vectors, chart-selected by nonvanishing square minors on the diagonal
  from the main matrix's nullity up (below it every one vanishes).

Minor indexing: ``minor_vector(data, t)`` is the tuple of signed maximal
minors Delta_{t,i} of the n x (n+1) matrix with degree bounds (t-1, n-t),
with Delta_{t,i} at position i-1.  The sign convention is
Delta_{t,i} = (-1)^(t+i) det(delete column i), which makes each vector a
kernel member at full rank and matches every closed form the identity
catalog checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .errors import InternalInconsistency
from .linalg import _eliminate, _kernel_vector, _minors_and_rank, determinant
from .polynomial import Poly, _box, _ints, _remainders, hermite_interpolant, product_F
from .problem import HermiteData, RationalSolution, build_matrix, rhip_check, witness_nodes


@dataclass(frozen=True)
class MinimalSolution:
    """The lowest-degree nontrivial pair solving the linearized problem.

    Normalized so A0 is monic (B0 monic when A0 = 0).  s0 is
    min(k-1-dA, n-k-dB); the full solution space is C(x) * (A0, B0) over
    deg C <= s0, so its dimension is kernel_dim = s0 + 1.  One of the two
    degree slots is always tight: dA = k-1-s0 or dB = n-k-s0.
    """

    A0: Poly
    B0: Poly
    dA: Union[int, float]
    dB: Union[int, float]
    s0: int
    kernel_dim: int

    @classmethod
    def from_pair(cls, data: HermiteData, A: list, B: list) -> "MinimalSolution":
        """The pair of int lists (A, B), residues over GF(p), each coefficient
        boxed once as x / lead, lead that of A (of B when A = 0)."""
        unit = next((x for P in (A, B) for x in reversed(P) if x), 0)
        if not unit:
            raise InternalInconsistency("zero pair offered as minimal solution")
        A0, B0 = (Poly._trimmed(_box(data.field, P, unit), data.field) for P in (A, B))
        dA, dB = A0.degree, B0.degree
        s0 = min(data.k - 1 - dA, data.n - data.k - dB)
        if s0 < 0 or s0 != int(s0):
            raise InternalInconsistency(
                f"minimal pair degrees ({dA}, {dB}) break the bounds of {data!r}"
            )
        s0 = int(s0)
        return cls(A0, B0, dA, dB, s0, s0 + 1)


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


def minor_vector(data: HermiteData, t: int) -> tuple:
    """The signed minor vector (Delta_{t,1}, ..., Delta_{t,n+1})."""
    if not 0 <= t <= data.n + 1:
        raise InternalInconsistency(f"minor family index t = {t} outside 0..n+1")
    return _minors_and_rank(build_matrix(data, t - 1, data.n - t), t % 2 == 0)[0]


def diagonal_minor(data: HermiteData, t: int) -> "Scalar":
    """Delta_{t,t}: delete column t from the (t-1, n-t) matrix and take det.

    Column t is that matrix's last left column, so deleting it leaves the
    (t-2, n-t) member.  The alternating signs cancel on the diagonal, so no
    sign is applied.
    """
    if not 1 <= t <= data.n + 1:
        raise InternalInconsistency(f"diagonal minor index t = {t} outside 1..n+1")
    return determinant(build_matrix(data, t - 2, data.n - t))


def _classify_minimal(data: HermiteData, minsol: MinimalSolution) -> Classification:
    """Node test of the minimal pair, per the solvability criterion.

    B0(u_i) = 0 forces A0(u_i) = 0, since A0 = B0 G mod (x - u_i)^(n_i); a
    common factor of A0 and B0 free of node roots would divide out and
    leave a smaller pair.  So gcd(A0, B0) = 1 exactly when B0 has no node
    root, and the witnesses are the whole test.
    """
    wits = witness_nodes(data, minsol.B0)
    if not wits:
        sol = RationalSolution(minsol.A0, minsol.B0)
        if not rhip_check(data, sol):
            raise InternalInconsistency(
                f"coprime minimal pair fails the original problem on {data!r}"
            )
        return Solvable(sol)
    if not set(wits) <= set(witness_nodes(data, minsol.A0)):
        raise InternalInconsistency(
            f"minimal denominator vanishes at a node where A0 does not on {data!r}"
        )
    return Unattainable(minsol.kernel_dim, wits)


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
    minsol = MinimalSolution.from_pair(data, vec[:k], vec[k:])
    if minsol.kernel_dim != d:
        raise InternalInconsistency(
            f"dimension law broken: s0+1 = {minsol.kernel_dim}, "
            f"kernel has {d} vectors"
        )
    return minsol, _classify_minimal(data, minsol)


def solve_eea(data: HermiteData) -> Classification:
    """Euclidean route.

    F = prod (x - u_i)^(n_i), G = the confluent interpolant of the data.
    Euclid on (F, G) runs only until the remainder has degree <= k-1; that
    row's remainder and Bezout cofactor T are the minimal pair, and only T
    is carried.  A zero remainder (G = 0, or F and G sharing a factor of
    degree >= k) also ends the run, with the same meaning.  The run is
    ``_remainders`` on ints, stopped there; over Q on L G, L the lcm of G's
    denominators (1 over GF(p)), so the pair for G is (R, L T).
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
    return _classify_minimal(data, MinimalSolution.from_pair(data, R, [L * c for c in T]))


def upper_certificate(data: HermiteData, j: int, up: tuple) -> "Scalar":
    """Delta_{k+j,k+j} off up = ``minor_vector(data, k+j-1)``: deleting that
    matrix's last column leaves the matrix of Delta_{k+j,k+j}, so it is
    (-1)^(k+j+n) times the vector's last entry."""
    n = data.n
    return -up[n] if (data.k + j + n) % 2 else up[n]


def find_defect(data: HermiteData):
    """Smallest j with a nonzero chart certificate, and that chart's vector.

    Returns (j, cert_low, mv) with cert_low = Delta_{k-j+1,k-j+1} and mv the
    signed-minor vector the chart slice reads: t = k-j+1 when cert_low is
    nonzero, else t = k+j-1, whose ``upper_certificate`` is then nonzero.
    The upper chart is eliminated only when the lower certificate vanishes;
    a caller that needs Delta_{k+j,k+j} beside a nonzero cert_low reads it
    off the t = k+j-1 vector, which at j = 1 is mv itself.

    The scan starts at the nullity N = (n+1) - r of the main (t = k) matrix,
    r read off the elimination of its vector: for j < N, zeroing the top j
    coefficients of A (of B) leaves N - j >= 1 kernel dimensions on the
    columns of Delta_{k-j+1,k-j+1} (Delta_{k+j,k+j}), so both vanish.
    cert_low is the diagonal entry of the t = k-j+1 vector.  At j = 1 both
    charts read the main vector.  Handing mv on to ``chart_pair`` means no
    matrix of the route is eliminated twice.

    Both charts are consulted for j <= m+1, the regime where both components
    of the minimal pair are nonzero.  Data that forces a zero minimal
    numerator has defect above m+1 and is only visible to the upper chart,
    so the scan continues there with cert_low = 0, up to j = n-k+1 where
    Delta_{n+1,n+1} is a confluent Vandermonde determinant and never
    vanishes.
    """
    k, n = data.k, data.n
    main, r = _minors_and_rank(build_matrix(data, k - 1, n - k), k % 2 == 0)
    for j in range(n + 1 - r, n - k + 2):
        if j <= data.m + 1:
            low = main if j == 1 else minor_vector(data, k - j + 1)
            if low[k - j]:
                return j, low[k - j], low
        up = main if j == 1 else minor_vector(data, k + j - 1)
        if upper_certificate(data, j, up):
            return j, data.field.zero, up
    raise InternalInconsistency(
        f"no nonzero chart certificate at any defect on {data!r}"
    )


def chart_pair(data: HermiteData, j: int, upper: bool, mv: tuple) -> tuple[Poly, Poly]:
    """The closed-form candidate pair of defect j from one chart, unscaled.

    mv is the chart's vector ``minor_vector(data, t)``, as ``find_defect``
    returns it.  Lower chart (certificate Delta_{k-j+1,k-j+1}): slice the
    t = k-j+1 vector into A over l = 0..k-j and B over l = k-j+1..n-2j+2;
    entries above that must vanish.  Upper chart (certificate
    Delta_{k+j,k+j}): t = k+j-1, A over l = 0..k-j, a forced-zero gap
    l = k-j+1..k+j-2, B over l = k+j-1..n.  The gap/tail checks are only
    enforced when the chart's certificate is nonzero; with a zero
    certificate the sliced pair must itself be identically zero, and is
    returned for the caller to observe.

    For j > m+1 only the upper chart exists; its A slice is empty (the
    minimal numerator is identically zero) and the gap covers everything
    below the B block.
    """
    k, n = data.k, data.n
    t = k + j - 1 if upper else k - j + 1
    # In-vector certificates: the lower chart's is its own diagonal entry;
    # the upper chart's Delta_{k+j,k+j} equals this vector's last entry up
    # to a sign, so nonvanishing may be read off without a second matrix.
    cert = mv[n] if upper else mv[k - j]
    A = Poly._trimmed(list(mv[: max(k - j + 1, 0)]), data.field)
    if upper:
        B = Poly._trimmed(list(mv[k + j - 1 :]), data.field)
        dead = mv[max(k - j + 1, 0) : k + j - 1]
    else:
        B = Poly._trimmed(list(mv[k - j + 1 : n - 2 * j + 3]), data.field)
        dead = mv[n - 2 * j + 3 :]
    if cert and any(dead):
        raise InternalInconsistency(
            f"minor vector t = {t} has support outside the defect-{j} chart "
            f"slices on {data!r}"
        )
    return A, B


def solve_minors(data: HermiteData) -> tuple[MinimalSolution, Classification]:
    """Closed-form route via signed-minor vectors.

    The defect is certified by the first nonzero diagonal minor flanking
    the vanishing run; the minimal pair is the corresponding chart slice.
    """
    j, cert_low, mv = find_defect(data)
    A, B = chart_pair(data, j, not cert_low, mv)
    if A.is_zero and B.is_zero:
        raise InternalInconsistency(
            f"certified chart produced the zero pair on {data!r}"
        )
    # the slices' denominators cleared jointly, so the pair keeps its ratio
    ints, a = _ints(data.field, A.coeffs + B.coeffs)[0], len(A.coeffs)
    minsol = MinimalSolution.from_pair(data, ints[:a], ints[a:])
    if minsol.kernel_dim != j:
        raise InternalInconsistency(
            f"chart defect {j} disagrees with degree count {minsol.kernel_dim}"
        )
    return minsol, _classify_minimal(data, minsol)
