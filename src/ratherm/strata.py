"""Rank-only classification and stratum-equation evaluation.

The unattainable set decomposes by defect j into strata of odd codimension
2j-1, each a union of per-node components.  This module re-derives that
picture two independent ways: ``classify_by_rank`` reads the defect, the
witnesses and both chart certificates off one elimination of the main
matrix's columns in shrink order, halted at its first gap, and
``stratum_equations`` evaluates the closed-form chart polynomials, sliced
from int minor vectors, whose zero sets cut the strata out, reading
witnesses with the solvers' node test.  Each classifier reads its
certificates off the degree law of the minimal pair (A0, B0): the lower one
is nonzero exactly when deg A0 = k-j, the upper one exactly when deg B0 =
n-k-j+1.  Both emit a :class:`StratumReport`; agreement with the solver
routes, and with the closed form of the first stratum on shape (2,1), is
enforced by the test suite on every instance it touches, and
``window_chart`` reads a third (defect, chart) off the display window.

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
from .linalg import ExactMatrix, _eliminate
from .polynomial import _box, _ints, _remainders, hermite_interpolant, product_F
from .problem import HermiteData, master_matrix, witness_nodes
from .solvers import chart_pair, find_defect


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


def window_chart(data: HermiteData, window: dict[int, Scalar]) -> tuple[int, str]:
    """(defect, chart) off ``diagonal_window``, the defect capped at m+2: the
    first j with Delta_{k-j+1,k-j+1} or Delta_{k+j,k+j} nonzero, and which.
    Up to m+1 both lie in the window, bar Delta_{n+1,n+1}, a confluent
    Vandermonde determinant and so nonzero; above m+1 every entry vanishes
    and only the upper chart exists."""
    k, n = data.k, data.n
    for j in range(1, data.m + 2):
        low, up = bool(window[k - j + 1]), k + j > n or bool(window[k + j])
        if low or up:
            return j, _chart_label(low, up)
    return data.m + 2, "upper"


def _chart_label(cert_low: bool, cert_up: bool) -> str:
    if cert_low and cert_up:
        return "both"
    if cert_low:
        return "lower"
    if cert_up:
        return "upper"
    raise InternalInconsistency("both chart certificates vanish at the defect")


def classify_by_rank(data: HermiteData) -> StratumReport:
    """Rank-only classifier: one elimination of the main matrix's columns in
    shrink order, halted at the first gap, at every defect.

    C_j, the (k-1-j, n-k-j) member (no left column past j = k), has kernel
    C(x) (A0, B0) over deg C < d-j, d the defect: full column rank exactly
    for j >= d.  The columns of C_J, J = n-k+1, come first, then for j =
    J-1 down to 0 the pair C_j minus C_{j+1}: left column k-j-1 when j < k,
    then right column n-k-j; then one unit column e_r per node, r the last
    row of its block.  So every column of C_d pivots and the gap lies in
    the pair of d.  Past C_d's c pivots the pair's Schur complements S_L,
    S_R span rank 1, a S_L + b S_R = 0 with a = A0's coefficient of x^(k-d)
    and b = B0's of x^(n-k-d+1): the upper certificate (b != 0) is nonzero
    exactly when the left column pivots, the lower one (a != 0) exactly
    when the right column is nonzero on rows[c:].  Above m+1, d > k, the
    pair is the right column alone, A0 = 0 and b != 0: no lower chart.

    B0(u_i) = 0 exactly when (A0, B0) / (x - u_i), of C_d's degrees, meets
    every condition but row r of node i, that is when deleting row r drops
    the rank of C_d, that is when e_r lies in C_d's column space and its
    column vanishes on rows[c:].  A pivot in the pair acts on rows[c:]
    invertibly, so both zero tests on rows[c:] read the same at the halt.
    """
    k, n = data.k, data.n
    J = n - k + 1
    size = [max(k - j, 0) + n - k - j + 1 for j in range(J + 1)]  # |C_j|
    order = list(range(size[J]))
    for j in range(J - 1, -1, -1):
        order += [k - j - 1] * (j < k) + [2 * n + 1 - k - j]
    master, ends = master_matrix(data), list(itertools.accumulate(data.n_vec))
    nums = [
        [row[c] for c in order] + [den if r == e - 1 else 0 for e in ends]
        for r, (row, den) in enumerate(zip(master.nums, master.dens))
    ]
    M = ExactMatrix.from_ints(nums, master.dens, n + 1 + data.l, data.field)
    rows, pivots, _, _, _ = _eliminate(M, halt=True)
    g = len(pivots)
    if pivots != list(range(g)) or g < size[J] or any(row[g] for row in rows[g:]):
        raise InternalInconsistency(
            f"halted elimination has pivots {pivots}, not a run up to a gap "
            f"in one shrink pair, on {data!r}"
        )
    d = next(j for j in range(1, J + 1) if size[j] <= g)
    c = size[d]
    witnesses = tuple(i for i in range(data.l) if not any(row[n + 1 + i] for row in rows[c:]))
    cert_low = d <= k and any(row[c + 1] for row in rows[c:])
    return StratumReport(
        defect=d,
        chart=_chart_label(cert_low, d > k or g > c),
        unattainable=bool(witnesses),
        witnesses=witnesses,
    )


def stratum_equations(data: HermiteData) -> StratumReport:
    """Closed-form stratum membership.

    For the certified defect j, the candidate denominator of each valid
    chart is evaluated at every node; vanishing at node i puts the point in
    that node's component of the stratum.  With both certificates nonzero
    the two charts give proportional denominators, so the lower one is
    evaluated.  Beside a nonzero lower certificate, the upper one is
    nonzero exactly when deg B0 = n-k-j+1, that is when the top entry of
    the lower chart's B slice is.
    """
    j, upper, vec = find_defect(data)
    _, B = chart_pair(data, j, upper, vec)
    if not any(B):
        raise InternalInconsistency(f"certified chart denominator is zero on {data!r}")
    witnesses = witness_nodes(data, B)
    return StratumReport(
        defect=j,
        chart=_chart_label(not upper, upper or bool(B[-1])),
        unattainable=bool(witnesses),
        witnesses=witnesses,
    )
