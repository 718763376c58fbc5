"""Rank-only classification and stratum-equation evaluation.

The unattainable set decomposes by defect j into strata of odd codimension
2j-1, each a union of per-node components.  This module re-derives that
picture two independent ways: ``classify_by_rank`` reads the defect off one
rank of the main matrix and the witnesses off ranks of row/column-deleted
matrices, and ``stratum_equations`` evaluates the closed-form chart
polynomials, sliced from minor vectors, whose zero sets cut the strata out,
reading witnesses with the solvers' node test.  Both emit a
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

import math
from dataclasses import dataclass

from .errors import InternalInconsistency
from .field import Scalar
from .linalg import ExactMatrix, rank
from .polynomial import _box, _ints, _remainders, hermite_interpolant, product_F
from .problem import HermiteData, build_matrix, build_submatrix_i, master_matrix, witness_nodes
from .solvers import chart_pair, diagonal_minor, find_defect


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
    rows = _remainders(F, dF, G, dG, field.p)
    (P0, _, _, c0), psc, degs, sigma = next(rows), {}, [n], field.one
    for P, _, _, c in rows:
        if len(P) < lo:  # zero, or below degree lo - 1: no psc the window reads
            break
        d, cc = len(P) - 1, c0 * c  # rho_{i-1} rho_i, without boxing the large c_i
        sigma *= _box(field, cc.numerator * P0[-1] * P[-1], cc.denominator) ** (degs[-1] - d)
        psc[d] = (-1) ** sum((a - d) * (b - d) for a, b in zip(degs, degs[1:])) * sigma  # tau_i
        P0, c0, degs = P, c, degs + [d]
    pairs = list(zip(data.u, data.n_vec))
    V = math.prod((u - w) ** (m * l) for j, (u, m) in enumerate(pairs) for w, l in pairs[:j])
    return {t: (-1) ** (n + t + 1) * V * psc.get(t - 1, field.zero) for t in range(lo, hi + 1)}


def _chart_label(cert_low: Scalar, cert_up: Scalar) -> str:
    if cert_low and cert_up:
        return "both"
    if cert_low:
        return "lower"
    if cert_up:
        return "upper"
    raise InternalInconsistency("both chart certificates vanish at the defect")


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


def classify_by_rank(data: HermiteData) -> StratumReport:
    """Rank-only classifier.

    The defect is the kernel dimension of the main (k-1, n-k) matrix,
    (n+1) - rank, in every regime.  Shrinking both degree bounds by j drops
    columns, so the j-shrunken matrix is a column subset of the
    (j-1)-shrunken one: full column rank is monotone in j, and it holds
    exactly for j >= defect, so the one main rank already decides the
    kernel of every shrunken matrix.

    For defect <= m+1, per node, delete the last row of that node's block
    and the final column of each side of the (defect-1)-shrunken matrix:
    the data is unattainable through node i exactly when this submatrix
    loses full column rank.  Data forcing a zero minimal numerator has
    defect above m+1, beyond the reach of the shrunken matrices; witnesses
    there come from appending the per-node evaluation functional to the
    main matrix and checking that the rank does not move.
    """
    k, n, m = data.k, data.n, data.m
    main = build_matrix(data, k - 1, n - k)
    main_rank = rank(main)
    defect = (n + 1) - main_rank
    if defect <= m + 1:
        j = defect - 1
        width = n - 2 * j + 1
        witnesses = []
        for i in range(1, data.l + 1):
            sub = build_submatrix_i(data, k - 1 - j, n - k - j, i, drop_cols=(k - j, width))
            if rank(sub) < width - 2:
                witnesses.append(i - 1)
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


def stratum_equations(data: HermiteData) -> StratumReport:
    """Closed-form stratum membership.

    For the certified defect j, the candidate denominator of each valid
    chart is evaluated at every node; vanishing at node i puts the point in
    that node's component of the stratum.  With both certificates nonzero
    the two charts give proportional denominators, so the lower one is
    evaluated.
    """
    j, cert_low, cert_up, mv = find_defect(data)
    _, B = chart_pair(data, j, not cert_low, mv)
    if B.is_zero:
        raise InternalInconsistency(f"certified chart denominator is zero on {data!r}")
    witnesses = witness_nodes(data, B)
    return StratumReport(
        defect=j,
        chart=_chart_label(cert_low, cert_up),
        unattainable=bool(witnesses),
        witnesses=witnesses,
    )
