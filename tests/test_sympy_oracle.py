"""Elimination kernels against sympy's DomainMatrix on family slices at
n = 12..16, past the brute-force oracle's MAX_BRUTE_COLS = 8.

The instances come from ``sample_stratum`` at defects up to 4, so the
diagonal minors inside the vanishing run are singular and the rank
deficiency of the main matrix is the defect.  Skipped when sympy is not
installed; nothing else in the suite needs it.
"""

import pytest

pytest.importorskip("sympy")
from sympy import GF, QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from ratherm import (  # noqa: E402
    FieldConfig,
    build_matrix,
    diagonal_minor,
    kernel_basis,
    rank,
    signed_minors,
)
from ratherm.verify import sample_stratum  # noqa: E402

from oracles import MAX_BRUTE_COLS, rows  # noqa: E402

RAT = FieldConfig.rationals()
GFP = FieldConfig.prime(1000003)
GF7 = FieldConfig.prime(7)

# (shape, k, defect, force_unattainable, field, seed)
CASES = [
    ((4, 4, 4), 6, 3, False, RAT, 1),
    ((4, 4, 4), 6, 2, True, RAT, 2),
    ((6, 5, 3), 7, 2, False, RAT, 6),
    ((4, 4, 4, 4), 8, 2, False, GFP, 3),
    ((4, 4, 4, 4), 8, 3, True, GFP, 4),
    ((5, 5, 4), 7, 4, True, GF7, 5),
    ((4, 4, 4, 4), 8, 1, False, GFP, 7),
]


def case_id(case):
    shape, k, defect, forced, field, _ = case
    return f"{','.join(map(str, shape))}-k{k}-d{defect}{'-forced' if forced else ''}-{field}"


@pytest.fixture(scope="module", params=CASES, ids=case_id)
def drawn(request):
    shape, k, defect, forced, field, seed = request.param
    d = sample_stratum(shape, k, defect, forced, seed, field)
    assert d.n + 1 > MAX_BRUTE_COLS
    return d, defect


def oracle(rows, field):
    """DomainMatrix of a list of rows, plus the converter for scalars."""
    if field.p is None:
        K = QQ

        def conv(x):
            return QQ(x.numerator, x.denominator)

    else:
        K = GF(field.p)

        def conv(x):
            return K(x.residue)

    width = len(rows[0]) if rows else 0
    dm = DomainMatrix([[conv(x) for x in row] for row in rows], (len(rows), width), K)
    return dm, conv


def drop_column(rows, c):
    return [row[:c] + row[c + 1 :] for row in rows]


def test_rank_and_diagonal_minors(drawn):
    d, defect = drawn
    n, k = d.n, d.k
    singular = 0
    for t in range(1, n + 2):
        M = build_matrix(d, t - 1, n - t)
        entries = rows(M)
        dm, conv = oracle(entries, d.field)
        assert rank(M) == dm.rank()
        # Delta_{t,t}: column t deleted by hand, not by slicing
        square, _ = oracle(drop_column(entries, t - 1), d.field)
        want = square.det()
        assert conv(diagonal_minor(d, t)) == want
        singular += not want
    assert rank(build_matrix(d, k - 1, n - k)) == n + 1 - defect
    if defect >= 2:
        assert not diagonal_minor(d, k + 1)
        assert singular >= defect - 1


def test_kernel_basis_span(drawn):
    d, defect = drawn
    n, k = d.n, d.k
    for alpha, beta in ((k - 1, n - k), (k - 2, n - k), (k - 1, n - k + 1)):
        M = build_matrix(d, alpha, beta)
        basis = kernel_basis(M)
        dm, _ = oracle(rows(M), d.field)
        theirs = dm.nullspace()
        assert len(basis) == theirs.shape[0]
        if not basis:
            continue
        ours, _ = oracle([list(v) for v in basis], d.field)
        assert (dm * ours.transpose()).is_zero_matrix
        assert ours.vstack(theirs).rank() == len(basis)
    assert len(kernel_basis(build_matrix(d, k - 1, n - k))) == defect


def test_signed_minors(drawn):
    d, defect = drawn
    n, k = d.n, d.k
    for t in sorted({k - 1, k, k + 1, k + defect}):
        entries = rows(build_matrix(d, t - 1, n - t))
        mv = signed_minors(build_matrix(d, t - 1, n - t))
        _, conv = oracle(entries, d.field)
        for i in range(1, n + 2):
            square, _ = oracle(drop_column(entries, i - 1), d.field)
            want = square.det()
            assert conv(mv[i - 1]) == (want if i % 2 else -want)
