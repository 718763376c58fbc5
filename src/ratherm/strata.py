"""Rank-only classification and stratum-equation evaluation.

The unattainable set decomposes by defect j into strata of odd codimension
2j-1, each a union of per-node components.  This module re-derives that
picture two independent ways: ``classify_by_rank`` reads the defect off one
rank of the main matrix, and the witnesses and chart certificates off one
elimination stopped after the defect-shrunken matrix, at every defect, and
``stratum_equations`` evaluates the closed-form chart polynomials, sliced
from int minor vectors, whose zero sets cut the strata out, reading
witnesses with the solvers' node test.  Both conditions hold up to scale,
so each classifier decides its certificates as zero tests.  Both emit a
:class:`StratumReport`; agreement with the solver routes, and with the
closed form of the first stratum on shape (2,1), is enforced by the test
suite on every instance it touches.

The display window Delta_{t,t} = (-1)^(n+t+1) prod_{i<j} (u_j - u_i)^(n_i
n_j) psc_{t-1}(F, G) comes from one remainder sequence of (F, G), by
psc_{n_i} = (-1)^tau_i sigma_i, sigma_i = sigma_{i-1} (rho_{i-1}
rho_i)^(n_{i-1} - n_i) (Brown & Traub 1971; von zur Gathen & Gerhard,
ch. 6); ``diagonal_window`` defines the terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInconsistency
from .field import Scalar
from .linalg import ExactMatrix, _eliminate, rank
from .polynomial import _box, _ints, _remainders, hermite_interpolant, product_F
from .problem import HermiteData, _family_columns, build_matrix, master_matrix, witness_nodes
from .solvers import _minors, chart_pair, find_defect


@dataclass(frozen=True)
class StratumReport:
    """Where one data point sits relative to the unattainability strata.

    defect: kernel dimension j of the main matrix (1 = generic).
    chart: which certificate is nonzero ("lower", "upper", or "both").
    unattainable: whether the problem has no solution at this point.
    witnesses: 0-based node indices of the stratum components containing
        the point (empty when solvable).
    """

    defect: int
    chart: str
    unattainable: bool
    witnesses: tuple[int, ...]

    def to_json_dict(self, data: HermiteData, window: dict[int, Scalar]) -> dict:
        """JSON form, with the ``diagonal_window`` of the data shown alongside."""
        fmt = data.field.format_scalar
        return {
            "defect": self.defect,
            "diagonal_minors": {str(t): fmt(v) for t, v in sorted(window.items())},
            "chart": self.chart,
            "unattainable": self.unattainable,
            "witnesses": list(self.witnesses),
        }


def diagonal_window(data: HermiteData) -> dict[int, Scalar]:
    """t -> Delta_{t,t} for t in [k-m, k+m+1] clipped to [1, n].

    Delta_{t,t} = (-1)^(n+t+1) V psc_{t-1}(F, G), V = prod_{i<j} (u_j -
    u_i)^(n_i n_j), F = ``product_F`` (monic, so G at formal degree n-1
    needs no correction), G = ``hermite_interpolant``.  Let n_0 = n > n_1 >
    ... be the degrees of the ``_remainders`` rows r_i = c_i P_i and rho_i =
    c_i lc(P_i).  By the fundamental theorem of subresultants (Brown &
    Traub 1971; von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 6),
    psc_{n_i} = (-1)^tau_i sigma_i with sigma_i = sigma_{i-1} (rho_{i-1}
    rho_i)^(n_{i-1} - n_i), sigma_0 = rho_0 = 1, and tau_i = sum_{1<=j<i}
    (n_{j-1} - n_i)(n_j - n_i); every other psc_j, j < n, is 0.  Neither
    classifier reads the window.
    """
    field, n = data.field, data.n
    lo, hi = max(1, data.k - data.m), min(n, data.k + data.m + 1)
    (F, dF), (G, dG) = (_ints(field, f(data).coeffs) for f in (product_F, hermite_interpolant))
    rows = _remainders(F, G, field.p, False)
    P0, psc, degs, sigma, cc = next(rows)[0], {}, [n], field.one, Fraction(1, dF * dG)
    for P, _, _, s, g in rows:
        if len(P) < lo:  # zero, or below degree lo - 1: no psc the window reads
            break
        # cc = c_{i-1} c_i = c_{i-2} c_{i-1} g_i / s_i, never the large c_i alone
        d, cc = len(P) - 1, cc * Fraction(g, s)
        sigma *= _box(field, [cc.numerator * P0[-1] * P[-1]], cc.denominator)[0] ** (degs[-1] - d)
        psc[d] = (-1) ** sum((a - d) * (b - d) for a, b in zip(degs, degs[1:])) * sigma  # tau_i
        P0, degs = P, degs + [d]
    pairs = list(zip(data.u, data.n_vec))
    V = math.prod((u - w) ** (m * l) for j, (u, m) in enumerate(pairs) for w, l in pairs[:j])
    return {t: (-1) ** (n + t + 1) * V * psc.get(t - 1, field.zero) for t in range(lo, hi + 1)}


def _chart_label(cert_low: bool, cert_up: bool) -> str:
    if cert_low and cert_up:
        return "both"
    if cert_low:
        return "lower"
    if cert_up:
        return "upper"
    raise InternalInconsistency("both chart certificates vanish at the defect")


def _shrunken_verdict(data: HermiteData, d: int) -> tuple[tuple[int, ...], bool, bool]:
    """Witnesses and the nonvanishing of both chart certificates at defect
    d, off one elimination stopped after the d-shrunken matrix.

    C, the (lo-1, n-k-d) matrix with lo = max(k-d, 0), has full column rank
    c = lo + n-k-d+1: the main kernel is the multiples of the minimal pair
    (A0, B0), and deg A0 = k-d or deg B0 = n-k-d+1.  Its columns come
    first, then, when d <= k, the right columns n-k-d+1 .. n-k+d-1
    completing it to the square matrix of Delta_{k-d+1,k-d+1}, then the
    left columns lo .. k+d-2 completing it to that of Delta_{k+d,k+d}, then
    one unit column e_r per node, r the last row of its block.  Past C's c
    pivots, w = n-c rows remain, each a nonzero multiple of a row of the
    Schur complement of C.  B0(u_i) = 0 exactly when (A0, B0) / (x - u_i),
    of C's degrees, meets every condition but row r of node i, that is when
    deleting row r drops the rank of C, that is when e_r lies in C's column
    space and its column vanishes on those rows.  A certificate is nonzero
    exactly when its w-square block there has full rank (Sylvester's
    identity; Bareiss 1968).  Up to m+1, d <= k and w = 2d-1; above m+1,
    d > k, A0 = 0, C has right columns only, w = k+d-1, and there is no
    lower chart.
    """
    k, n, field = data.k, data.n, data.field
    lo = max(k - d, 0)
    c = lo + n - k - d + 1
    w = n - c
    lower = list(range(2 * n + 2 - k - d, 2 * n + 1 - k + d)) if d <= k else []
    cols = _family_columns(data, lo - 1, n - k - d) + lower + list(range(lo, k + d - 1))
    master, ends = master_matrix(data), list(itertools.accumulate(data.n_vec))
    nums = [
        [row[j] for j in cols] + [den if r == e - 1 else 0 for e in ends]
        for r, (row, den) in enumerate(zip(master.nums, master.dens))
    ]
    M = ExactMatrix.from_ints(nums, master.dens, len(cols) + data.l, field)
    rows, pivots, _, _, _ = _eliminate(M, c)
    if len(pivots) != c:
        raise InternalInconsistency(
            f"the {d}-shrunken matrix has rank {len(pivots)} < {c} on {data!r}"
        )
    tail = [row[c:] for row in rows[c:]]

    def full_rank(at: int) -> bool:
        block = [row[at : at + w] for row in tail]
        return rank(ExactMatrix.from_ints(block, [1] * w, w, field)) == w

    units = len(cols) - c
    witnesses = tuple(i for i in range(data.l) if not any(row[units + i] for row in tail))
    return witnesses, bool(lower) and full_rank(0), full_rank(len(lower))


def classify_by_rank(data: HermiteData) -> StratumReport:
    """Rank-only classifier: one rank of the main matrix, one stopped
    elimination, and at most two tail ranks, at every defect.

    The defect is the kernel dimension of the main (k-1, n-k) matrix,
    (n+1) - rank.  Shrinking both degree bounds by j drops columns, so the
    j-shrunken matrix is a column subset of the (j-1)-shrunken one: full
    column rank is monotone in j, and it holds exactly for j >= defect, so
    the one main rank already decides the kernel of every shrunken matrix.

    The data is unattainable through node i exactly when the minimal
    denominator vanishes at u_i, that is when deleting the last row of node
    i's block drops the rank of the defect-shrunken matrix; one elimination
    stopped after that matrix decides it for every node, and both chart
    certificates (``_shrunken_verdict``).  Above m+1, where the minimal
    numerator is zero, the lower chart does not exist.
    """
    k, n = data.k, data.n
    defect = (n + 1) - rank(build_matrix(data, k - 1, n - k))
    witnesses, cert_low, cert_up = _shrunken_verdict(data, defect)
    return StratumReport(
        defect=defect,
        chart=_chart_label(cert_low, cert_up),
        unattainable=bool(witnesses),
        witnesses=witnesses,
    )


def stratum_equations(data: HermiteData) -> StratumReport:
    """Closed-form stratum membership.

    For the certified defect j, the candidate denominator of each valid
    chart is evaluated at every node; vanishing at node i puts the point in
    that node's component of the stratum.  With both certificates nonzero
    the two charts give proportional denominators, so the lower one is
    evaluated.  Beside a nonzero lower certificate, the upper one is the
    last entry of the t = k+j-1 vector up to sign, which at j = 1 is the
    lower chart's own vector.
    """
    j, upper, vec = find_defect(data)
    up = vec if j == 1 or upper else _minors(data, data.k + j - 1)[0]
    _, B = chart_pair(data, j, upper, vec)
    if not any(B):
        raise InternalInconsistency(f"certified chart denominator is zero on {data!r}")
    witnesses = witness_nodes(data, B)
    return StratumReport(
        defect=j,
        chart=_chart_label(not upper, bool(up[data.n])),
        unattainable=bool(witnesses),
        witnesses=witnesses,
    )
