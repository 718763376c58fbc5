"""Test oracles: closed forms checked against the package, kept out of it.

``b1_closed_form_check`` compares the codimension-1 closed form for shape
(2,1) with the rank classifier; ``disputed_variants`` are three natural
but wrong transcriptions of catalog identities, for showing that
``check_identity`` rejects false identities; ``specialized_vandermonde_data``
is the substitution under which the main matrix becomes a confluent
Vandermonde matrix.  ``defect_by_scan_ref`` is the descending scan of
shrunken-matrix ranks the rank classifier once ran, kept to show that the
one main rank gives the same defect; ``find_defect_ref`` is the ascending
chart scan ``find_defect`` ran from j = 1, kept to show that starting at the
main matrix's nullity returns the same values; ``defect_certificates`` is
``find_defect``'s defect and chart with both signed certificates read off
``diagonal_minor`` and the chart's boxed ``minor_vector``, in
``find_defect_ref``'s shape.  ``classify_minimal_ref`` is the node test of
a minimal solution on field scalars.
``solve_kernel_ref`` is the kernel route on the shrunken matrix and
``classify_by_rank_ref`` the rank classifier on per-node ranks and
determinant certificates, the routines the one-elimination versions
replaced; above m+1 its per-node ranks are those of the main matrix with a
node's evaluation row appended (``_denominator_root_nodes``).
``brute_force_kernel`` is a plain Gauss-Jordan null-space oracle for
matrices of at most ``MAX_BRUTE_COLS`` columns.  ``eliminate_ref`` is
the eager Bareiss loop (every row below the pivot updated and divided by the
previous pivot), the reference for the lazily scaled ``_eliminate``.

``evaluate_ref``, ``taylor_prefix_ref``, ``whip_residual_ref``,
``divmod_ref``, ``gcd_ref``, ``eea_ref`` and ``hermite_interpolant_ref``
are plain loops on field scalars (``Fraction`` or ``PrimeFieldElement``),
the references the int kernels of the package are compared against.
``divmod_ref`` is the one polynomial division of the tests: ``Poly`` has
none, and ``gcd_ref`` and ``eea_ref`` run on it; ``monic_ref`` is the one
normalization, by the inverse leading coefficient.

``master_matrix_ref`` (binomials and a convolution with v_i),
``rational_taylor_ref`` (the series division on field scalars),
``rhip_check_ref`` (the residual, then the node test, on field scalars) and
``from_pair_ref`` (the pair normalized by ``Poly`` arithmetic) are the
routines the int view, the one-pass check and the box-once pair replaced.

``matrix`` and ``rows`` build an ``ExactMatrix`` from rows of scalars and
read them back, and ``mul_vector`` is the matrix times a vector of
scalars; ``poly_one``, ``poly_add``, ``poly_sub`` and ``poly_pow`` are the
polynomial sums and powers of the tests.  The package has none of them:
no CLI run builds or reads a matrix as scalar rows, and ``Poly`` has
``*`` only.
"""

import math
from dataclasses import replace

from ratherm import (
    EEARow,
    ExactMatrix,
    HermiteData,
    MinimalSolution,
    Poly,
    RationalSolution,
    Solvable,
    Unattainable,
    build_matrix,
    build_submatrix_i,
    classify_by_rank,
    diagonal_minor,
    kernel_basis,
    minor_vector,
    paper_identity_catalog,
    rank,
)
from ratherm.errors import DivisionByZero, InternalInconsistency, ShapeMismatch, TooLarge
from ratherm.field import RATIONALS
from ratherm.polynomial import _box, _ints
from ratherm.solvers import find_defect
from ratherm.problem import master_matrix
from ratherm.strata import StratumReport, _chart_label

MAX_BRUTE_COLS = 8


def matrix(entries, field) -> ExactMatrix:
    """The ExactMatrix over field of rows of ints, Fractions or field scalars,
    built through ``ExactMatrix.from_ints`` on each row's ``_ints``."""
    scalars = [[field.coerce(x) for x in row] for row in entries]
    ints = [_ints(field, row) for row in scalars]
    width = len(scalars[0]) if scalars else 0
    return ExactMatrix.from_ints([nums for nums, _ in ints], [den for _, den in ints], width, field)


def rows(M: ExactMatrix) -> list[list]:
    """The rows of M as lists of field scalars."""
    return [_box(M.field, nums, den) for nums, den in zip(M.nums, M.dens)]


def mul_vector(M: ExactMatrix, v) -> list:
    """M times the vector v of field scalars (or ints), as field scalars."""
    v = list(v)
    if len(v) != M.c:
        raise ShapeMismatch(f"vector of length {len(v)} times {M.r}x{M.c}")
    return [sum((x * y for x, y in zip(row, v)), M.field.zero) for row in rows(M)]


def poly_one(field) -> Poly:
    return Poly((1,), field)


def poly_add(p: Poly, q: Poly) -> Poly:
    """p + q on coefficient lists; q must be over p's field."""
    a, b = list(p.coeffs), list(q.coeffs)
    if len(a) < len(b):
        a, b = b, a
    for i, c in enumerate(b):
        a[i] = a[i] + c
    return Poly(a, p.field)


def poly_sub(p: Poly, q: Poly) -> Poly:
    """p - q on coefficient lists; q must be over p's field."""
    return poly_add(p, Poly([-c for c in q.coeffs], q.field))


def poly_pow(p: Poly, e: int) -> Poly:
    """p to the power e >= 0, by repeated products."""
    out = poly_one(p.field)
    for _ in range(e):
        out = out * p
    return out


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


def defect_by_scan_ref(data: HermiteData) -> int:
    """Defect by the descending scan: shrink both degree bounds by j,
    starting at j = m, while the shrunken matrix keeps full column rank
    n-2j+1; the exit value j0 - 1 certifies defect j0.  When the scan
    stalls at its start, the defect may exceed m+1 (a zero minimal
    numerator) and is read off the main matrix's kernel dimension."""
    k, n, m = data.k, data.n, data.m
    j = m
    while j >= 1 and rank(build_matrix(data, k - 1 - j, n - k - j)) == n - 2 * j + 1:
        j -= 1
    if j < m:
        return j + 1
    return max(m + 1, (n + 1) - rank(build_matrix(data, k - 1, n - k)))


def find_defect_ref(data: HermiteData):
    """``find_defect`` by the ascending scan j = 1, 2, ...: the first j with
    a nonzero chart certificate, as (j, cert_low, cert_up, mv).  Each j
    takes the vectors of t = k+j-1 and, for 1 < j <= m+1, t = k-j+1, so
    defect d costs 2d-1 of them."""
    k, n = data.k, data.n
    for j in range(1, n - k + 2):
        up = minor_vector(data, k + j - 1)
        cert_up = -up[n] if (k + j + n) % 2 else up[n]
        low, cert_low = up, data.field.zero
        if j <= data.m + 1:
            low = up if j == 1 else minor_vector(data, k - j + 1)
            cert_low = low[k - j]
        if cert_low or cert_up:
            return j, cert_low, cert_up, low if cert_low else up
    raise InternalInconsistency(f"no nonzero chart certificate at any defect on {data!r}")


def defect_certificates(data: HermiteData):
    """(j, cert_low, cert_up, mv): ``find_defect``'s defect j, the signed
    certificates Delta_{k-j+1,k-j+1} (zero above m+1, where j > k) and
    Delta_{k+j,k+j} by ``diagonal_minor``, and the boxed ``minor_vector`` of
    the chart ``find_defect`` chose."""
    j, upper, _ = find_defect(data)
    k = data.k
    cert_low = diagonal_minor(data, k - j + 1) if j <= k else data.field.zero
    mv = minor_vector(data, k + j - 1 if upper else k - j + 1)
    return j, cert_low, diagonal_minor(data, k + j), mv


def classify_minimal_ref(data: HermiteData, minsol: MinimalSolution):
    """The node test of a minimal solution on field scalars: unattainable
    with the nodes where B0 vanishes, else solvable by (A0, B0)."""
    wits = tuple(i for i, u in enumerate(data.u) if not evaluate_ref(minsol.B0, u))
    if wits:
        return Unattainable(minsol.kernel_dim, wits)
    return Solvable(RationalSolution(minsol.A0, minsol.B0))


def solve_kernel_ref(data: HermiteData):
    """The kernel route on two kernel bases: the main matrix's gives the
    defect d, and the one-dimensional kernel of the matrix shrunk to the
    bounds deg A0 <= k-d, deg B0 <= n-k-d+1 is the pair."""
    k, n = data.k, data.n
    basis = kernel_basis(build_matrix(data, k - 1, n - k))
    d = len(basis)
    alpha = max(k - d, -1)
    if d != 1:
        basis = kernel_basis(build_matrix(data, alpha, n - k - d + 1))
    if len(basis) != 1:
        raise InternalInconsistency(f"shrunken kernel at defect {d} has {len(basis)} vectors")
    vec = basis[0]
    minsol = from_pair_ref(
        data, Poly(vec[: alpha + 1], data.field), Poly(vec[alpha + 1 :], data.field)
    )
    if minsol.kernel_dim != d:
        raise InternalInconsistency(f"dimension law broken: {minsol.kernel_dim} != {d}")
    return minsol, classify_minimal_ref(data, minsol)


def _denominator_root_nodes(data: HermiteData, M: ExactMatrix, r: int) -> list[int]:
    """Rank test for ``B(u_i) = 0`` across the whole kernel of M, of rank r.

    Appending the evaluation functional B |-> B(u_i) as an extra row leaves
    the rank unchanged exactly when every kernel element already satisfies
    it, i.e. when the minimal denominator vanishes at node i.  The master
    row of (u_i, order 0) carries the powers u_i^l in its left columns; it
    joins M's int rows with its own denominator.
    """
    master, roots = master_matrix(data), []
    for i in range(data.l):
        at = sum(data.n_vec[:i])
        row = [0] * data.k + master.nums[at][: data.n - data.k + 1]
        ext = ExactMatrix.from_ints(M.nums + [row], M.dens + [master.dens[at]], M.c, data.field)
        if rank(ext) == r:
            roots.append(i)
    return roots


def classify_by_rank_ref(data: HermiteData) -> StratumReport:
    """The rank classifier on one rank per node and determinant
    certificates: at defect d <= m+1 node i is a witness when deleting the
    last row of its block and the last column of each side from the
    (d-1)-shrunken matrix loses full column rank; above m+1, when appending
    its evaluation row to the main matrix leaves the rank unchanged
    (``_denominator_root_nodes``).  The certificates are
    ``diagonal_minor(k-d+1)`` and ``diagonal_minor(k+d)``."""
    k, n, m = data.k, data.n, data.m
    main = build_matrix(data, k - 1, n - k)
    main_rank = rank(main)
    defect = (n + 1) - main_rank
    if defect <= m + 1:
        j = defect - 1
        width = n - 2 * j + 1
        witnesses = [
            i - 1
            for i in range(1, data.l + 1)
            if rank(build_submatrix_i(data, k - 1 - j, n - k - j, i, drop_cols=(k - j, width)))
            < width - 2
        ]
    else:
        witnesses = _denominator_root_nodes(data, main, main_rank)
    cert_low = diagonal_minor(data, k - defect + 1) if k >= defect else data.field.zero
    cert_up = diagonal_minor(data, k + defect)
    return StratumReport(
        defect=defect,
        chart=_chart_label(cert_low, cert_up),
        unattainable=bool(witnesses),
        witnesses=tuple(witnesses),
    )


def brute_force_kernel(M: ExactMatrix) -> list[tuple]:
    """Kernel basis by plain Gauss-Jordan, pivoting bottom-up.

    Deliberately different from the production path (fraction-free, top-down
    on plain ints): it divides boxed scalars, pivots are searched from the
    last row upward and the output vectors are not normalized.  Spans must
    agree with kernel_basis.
    """
    if M.c > MAX_BRUTE_COLS:
        raise TooLarge(f"brute-force kernel capped at {MAX_BRUTE_COLS} columns")
    work = rows(M)
    pivot_of: dict[int, int] = {}
    used: set[int] = set()
    for c in range(M.c):
        pr = None
        for r in range(M.r - 1, -1, -1):
            if r not in used and work[r][c]:
                pr = r
                break
        if pr is None:
            continue
        used.add(pr)
        pivot_of[c] = pr
        piv = work[pr][c]
        for r in range(M.r):
            if r != pr and work[r][c]:
                factor = work[r][c] / piv
                work[r] = [a - factor * b for a, b in zip(work[r], work[pr])]
    basis = []
    for f in range(M.c):
        if f in pivot_of:
            continue
        vec = [M.field.zero] * M.c
        vec[f] = M.field.one
        for c, pr in pivot_of.items():
            vec[c] = -(work[pr][f] / work[pr][c])
        basis.append(tuple(vec))
    return basis


def monic_ref(p: Poly) -> Poly:
    """p scaled by the inverse of its leading coefficient; zero stays zero."""
    return p if p.is_zero else p * (p.field.one / p.lead)


def eliminate_ref(M: ExactMatrix) -> tuple[list[list[int]], list[int], int, bool, int]:
    """The eager forward elimination, with ``_eliminate``'s contract: over Q
    every row below the pivot d becomes (d*x - f*y) / prev right of the
    pivot column, prev the previous pivot (Bareiss 1968); over GF(p) the
    pivot row is scaled to 1 and rows with f != 0 become x - f*y."""
    p = M.field.p
    gs = [math.gcd(den, *row) for row, den in zip(M.nums, M.dens)]
    rows = [[x // g for x in row] if g > 1 else row for row, g in zip(M.nums, gs)]
    scale = math.prod(den // g for den, g in zip(M.dens, gs))
    pivots: list[int] = []
    prev, parity = 1, False
    for col in range(M.c):
        k = len(pivots)
        if k == M.r:
            break
        piv = next((i for i in range(k, M.r) if rows[i][col]), None)
        if piv is None:
            continue
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            parity = not parity
        top, lo = rows[k], col + 1
        d = top[col]
        if p is not None:
            inv = pow(d, -1, p)
            top = rows[k] = top[:col] + [1] + [y * inv % p for y in top[lo:]]
        tail = top[lo:]
        for i in range(k + 1, M.r):
            row, f = rows[i], rows[i][col]
            if p is None:
                rows[i] = row[:lo] + [(d * x - f * y) // prev for x, y in zip(row[lo:], tail)]
            elif f:
                rows[i] = row[:lo] + [(x - f * y) % p for x, y in zip(row[lo:], tail)]
        pivots.append(col)
        prev = d if p is None else prev * d % p
    return rows, pivots, prev, parity, scale


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


def evaluate_ref(p: Poly, x0):
    """Horner evaluation on field scalars."""
    x0 = p.field.coerce(x0)
    acc = p.field.zero
    for c in reversed(p.coeffs):
        acc = acc * x0 + c
    return acc


def taylor_prefix_ref(p: Poly, x0, count: int) -> list:
    """First ``count`` Taylor coefficients of p at x0 by repeated synthetic
    division on field scalars; zero past deg p."""
    x0, zero = p.field.coerce(x0), p.field.zero
    cur, out = list(p.coeffs), []
    for _ in range(count):
        acc, quot = zero, []
        for c in reversed(cur):
            acc = acc * x0 + c
            quot.append(acc)
        out.append(quot.pop() if quot else zero)
        cur = quot[::-1]
    return out


def whip_residual_ref(data: HermiteData, sol) -> list:
    """j! (a_j - sum_t v_{i,t} b_{j-t}) per row (i, j), on field scalars."""
    fact = [data.field.from_int(math.factorial(j)) for j in range(max(data.n_vec))]
    out = []
    for ui, vi in zip(data.u, data.v):
        a = taylor_prefix_ref(sol.A, ui, len(vi))
        b = taylor_prefix_ref(sol.B, ui, len(vi))
        for j in range(len(vi)):
            acc = a[j]
            for t in range(j + 1):
                acc = acc - vi[t] * b[j - t]
            out.append(fact[j] * acc)
    return out


def divmod_ref(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(q, r) with a = q b + r and deg r < deg b, by long division on the
    coefficient lists; b must be nonzero."""
    if b.is_zero:
        raise DivisionByZero("polynomial division by zero")
    d, rem = b.degree, list(a.coeffs)
    quot = [a.field.zero] * max(len(rem) - d, 0)
    for top in range(len(rem) - 1, d - 1, -1):
        c = quot[top - d] = rem[top] / b.lead
        for j, y in enumerate(b.coeffs):
            rem[top - d + j] = rem[top - d + j] - c * y
    return Poly(quot, a.field), Poly(rem, a.field)


def gcd_ref(p: Poly, q: Poly) -> Poly:
    """Monic gcd by Euclid with field-scalar division."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, divmod_ref(a, b)[1]
    return monic_ref(a)


def eea_ref(F: Poly, G: Poly) -> list:
    """The extended Euclidean table of (F, G), F and G nonzero, by Euclid
    with field-scalar division, the zero row included as the last row.

    Row 0 is (0, 0, F, 1, 0); row i >= 1 carries the quotient of rows i-1
    and i, and the zero row the quotient of the step that produced it.
    """
    zero, one = Poly.zero(F.field), poly_one(F.field)
    rows = [EEARow(0, zero, F, one, zero)]
    prev, cur = (F, one, zero), (G, zero, one)
    while True:
        q, r = divmod_ref(prev[0], cur[0])
        rows.append(EEARow(len(rows), q, *cur))
        prev, cur = cur, (r, poly_sub(prev[1], q * cur[1]), poly_sub(prev[2], q * cur[2]))
        if r.is_zero:
            rows.append(EEARow(len(rows), q, *cur))
            return rows


def hermite_interpolant_ref(data: HermiteData) -> Poly:
    """The confluent interpolant by Newton divided differences on the node
    multiset, on field scalars; a confluent entry spanning j+1 copies of
    u_i is v_{i,j} directly.  The Newton form is expanded by Horner,
    c <- c (x - z_b) + dd[0][b]."""
    field = data.field
    owner = [i for i, ni in enumerate(data.n_vec) for _ in range(ni)]
    z = [data.u[i] for i in owner]
    n = len(z)
    dd = [[field.zero] * n for _ in range(n)]
    for span in range(n):
        for a in range(n - span):
            b = a + span
            if owner[a] == owner[b]:
                dd[a][b] = data.v[owner[a]][span]
            else:
                dd[a][b] = (dd[a + 1][b] - dd[a][b - 1]) / (z[b] - z[a])
    c = [dd[0][n - 1]]
    for b in range(n - 2, -1, -1):
        c = [lo - z[b] * hi for lo, hi in zip([dd[0][b]] + c, c + [field.zero])]
    return Poly(c, field)


def master_matrix_ref(data: HermiteData) -> ExactMatrix:
    """The master matrix from binomials and a convolution: row (i, j) over
    b^n D holds C(l, j) a^(l-j) b^(n-l+j) D in left column l and the
    convolution of the left entries with -w in right column l, divided by
    its content (residues over GF(p))."""
    n, p, cols = data.n, data.field.p, range(data.n + 1)
    nums, dens = [], []
    for ui, vi in zip(data.u, data.v):
        (a,), b = _ints(data.field, (ui,))
        w, D = _ints(data.field, vi)
        pw = [a**e * b ** (n - e) if p is None else pow(a, e, p) for e in cols]
        left = [[math.comb(l, j) * pw[max(l - j, 0)] for l in cols] for j in range(len(vi))]
        for j, row in enumerate(left):
            conv = [0] * (n + 1)
            for t in (t for t in range(j + 1) if w[j - t]):
                conv = [x - w[j - t] * y for x, y in zip(conv, left[t])]
            scaled = [x * D for x in row] + conv
            g = math.gcd(b**n * D, *scaled)
            nums.append([x // g if p is None else x % p for x in scaled])
            dens.append(b**n * D // g)
    return ExactMatrix.from_ints(nums, dens, 2 * n + 2, data.field)


def rational_taylor_ref(A: Poly, B: Poly, x0, count: int) -> list:
    """Taylor coefficients of A/B at x0 by power-series division on field
    scalars, q_t = (a_t - sum_{s<t} q_s b_{t-s}) / b_0."""
    a, b = taylor_prefix_ref(A, x0, count), taylor_prefix_ref(B, x0, count)
    if count and not b[0]:
        raise DivisionByZero("denominator vanishes at the expansion point")
    q = []
    for t in range(count):
        acc = a[t]
        for s in range(t):
            acc = acc - q[s] * b[t - s]
        q.append(acc / b[0])
    return q


def rhip_check_ref(data: HermiteData, sol) -> bool:
    """The check as two passes: the boxed residual vanishes, then B has no
    node root; both on field scalars, so no int kernel is shared."""
    return not any(whip_residual_ref(data, sol)) and all(evaluate_ref(sol.B, u) for u in data.u)


def from_pair_ref(data: HermiteData, A0: Poly, B0: Poly) -> MinimalSolution:
    """The minimal solution of a pair of polynomials, scaled by ``Poly``
    arithmetic so A0 is monic (B0 when A0 = 0)."""
    if A0.is_zero and B0.is_zero:
        raise InternalInconsistency("zero pair offered as minimal solution")
    inv = data.field.one / (A0.lead if not A0.is_zero else B0.lead)
    A0, B0 = A0 * inv, B0 * inv
    dA, dB = A0.degree, B0.degree
    s0 = min(data.k - 1 - dA, data.n - data.k - dB)
    if s0 < 0 or s0 != int(s0):
        raise InternalInconsistency(f"minimal pair degrees ({dA}, {dB}) break the bounds")
    return MinimalSolution(A0, B0, int(s0), int(s0) + 1)
