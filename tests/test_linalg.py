"""Exact matrices: elimination, determinants, kernels, signed minor vectors."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratherm import (
    ExactMatrix,
    FieldConfig,
    InternalInconsistency,
    ShapeMismatch,
    determinant,
    kernel_basis,
    rank,
    signed_minors,
)
from ratherm.linalg import _eliminate, _kernel_vector
from ratherm.problem import build_matrix, build_submatrix_i
from ratherm.verify import random_data

from oracles import eliminate_ref, matrix, mul_vector, rows

RAT = FieldConfig.rationals()
GF7 = FieldConfig.prime(7)
GF13 = FieldConfig.prime(13)
# Integer and non-integer rationals, then two small primes, where random
# draws often leave a pivotless column ahead of a pivot column.
KINDS = ("int", "frac", GF7, GF13)


def M(entries, field=RAT):
    return matrix(entries, field)


def det_cofactor(rows):
    """Independent determinant: Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(r) != n for r in rows):
        raise AssertionError("oracle needs a square matrix")
    if n == 1:
        return rows[0][0]
    total = rows[0][0] - rows[0][0]  # zero of the right field
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total = total + sign * rows[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def rand_rows(rng, r, c, kind="int", dep=0):
    """Random rows; "frac" rows each draw their own denominators.

    With ``dep``, that many columns other than the last, taken left to
    right, are replaced by a random combination of the columns before them
    (column 0 by zero): none of them carries a pivot, while a later column
    still may.
    """
    if kind == "int":
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(c)] for _ in range(r)]
    elif kind == "frac":
        rows = [
            [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(c)]
            for dens in ([rng.randint(1, 12) for _ in range(2)] for _ in range(r))
        ]
    else:
        rows = [[kind.from_int(rng.randrange(kind.p)) for _ in range(c)] for _ in range(r)]
    zero = field_of(kind).zero
    for j in sorted(rng.sample(range(c - 1), min(dep, c - 1))):
        coeffs = [rng.randint(-2, 2) for _ in range(j)]
        for row in rows:
            row[j] = sum((a * row[i] for i, a in enumerate(coeffs)), zero)
    return rows


def field_of(kind):
    return kind if isinstance(kind, FieldConfig) else RAT


def test_construction_and_accessors():
    m = M([[1, 2], [3, 4]])
    assert (m.r, m.c) == (2, 2)
    assert rows(m) == [[1, 2], [3, 4]]
    assert rows(M([[Fraction(1, 2), 3]])) == [[Fraction(1, 2), Fraction(3)]]


def test_select():
    m = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert rows(m.select(range(3), [1])) == [[2], [5], [8]]
    assert rows(m.select([2, 0], [2, 0])) == [[9, 7], [3, 1]]
    assert m.select([], [0]).r == 0
    empty = m.select([], [0, 1])
    assert (empty.r, empty.c) == (0, 2)
    assert rank(empty) == 0
    assert kernel_basis(empty) == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert rows(m.select([1], [])) == [[]] and m.select([1], []).c == 0


@pytest.mark.parametrize("field", [RAT, GF7], ids=["Q", "GF7"])
def test_master_slices_rebuild(field):
    """Slices of the int-built master equal the matrices rebuilt from their
    boxed rows, and eliminate to the same rank, kernel and determinant."""
    rng = random.Random(61)
    for shape, k in [((3, 2, 2), 4), ((4, 1), 2), ((2, 2, 2, 1), 3)]:
        d = random_data(rng, shape, k, field)
        slices = [build_matrix(d, a, d.n - 2 - a) for a in range(-1, d.n)]
        slices += [build_matrix(d, k - 1, d.n - k), build_submatrix_i(d, k - 1, d.n - k, 1)]
        for S in slices:
            T = matrix(rows(S), S.field)
            assert (T.r, T.c, rows(T)) == (S.r, S.c, rows(S))
            assert rank(T) == rank(S)
            assert kernel_basis(T) == kernel_basis(S)
            if S.r == S.c:
                assert determinant(T) == determinant(S)


def test_determinant_against_cofactor_oracle():
    rng = random.Random(2)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = rand_rows(rng, n, n)
        assert determinant(M(rows)) == det_cofactor(rows)
    for kind, _ in itertools.product(KINDS, range(15)):
        n = rng.randint(1, 4)
        rows = rand_rows(rng, n, n, kind)
        assert determinant(M(rows, field_of(kind))) == det_cofactor(rows)


def test_determinant_singular_and_shape():
    assert determinant(M([[1, 2], [2, 4]])) == Fraction(0)
    with pytest.raises(ShapeMismatch):
        determinant(M([[1, 2, 3], [4, 5, 6]]))
    assert determinant(M([])) == Fraction(1)


def test_rank_against_minor_oracle():
    rng = random.Random(5)
    for kind, _ in itertools.product(KINDS, range(25)):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        rows = rand_rows(rng, r, c, kind)
        m = M(rows, field_of(kind))
        best = 0
        for size in range(1, min(r, c) + 1):
            for ri in itertools.combinations(range(r), size):
                for ci in itertools.combinations(range(c), size):
                    sub = [[rows[a][b] for b in ci] for a in ri]
                    if det_cofactor(sub):
                        best = max(best, size)
        assert rank(m) == best


def test_rank_known_cases():
    assert rank(M([[0, 0], [0, 0]])) == 0
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(M([[1, 0], [0, 1]])) == 2
    outer = [[i * j for j in (1, 2, 3)] for i in (2, 5, 7)]
    assert rank(M(outer)) == 1


@given(
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(0, 10**6),
    st.sampled_from(KINDS),
    st.integers(0, 2),
)
@settings(max_examples=150)
# Each of these draws has rank 3 and two free columns ahead of its last
# pivot column, so back substitution steps over skipped columns.
@example(r=3, c=6, seed=1, kind="int", dep=2)
@example(r=3, c=6, seed=0, kind="frac", dep=2)
@example(r=3, c=6, seed=0, kind=GF7, dep=2)
@example(r=3, c=6, seed=0, kind=GF13, dep=2)
def test_kernel_basis_properties(r, c, seed, kind, dep):
    rng = random.Random(seed)
    field = field_of(kind)
    m = M(rand_rows(rng, r, c, kind, dep), field)
    basis = kernel_basis(m)
    assert len(basis) == c - rank(m)
    for vec in basis:
        assert len(vec) == c
        assert not any(mul_vector(m, vec))
        assert next(x for x in vec if x) == field.one
    if basis:
        stacked = M(basis, field)
        assert rank(stacked) == len(basis)


@st.composite
def zero_heavy_matrices(draw):
    """Int rows, mostly zero, of any shape up to 6x7, about a quarter of them
    combinations of earlier rows; over Q each row draws a denominator and
    entries are mostly non-units, so a wrong Bareiss divisor shows; over
    GF(p) rows are residues.  ``sampled_from`` keeps the shapes spread."""
    field = draw(st.sampled_from((RAT, GF7, FieldConfig.prime(1000003))))
    p = field.p
    r, c = draw(st.sampled_from(range(7))), draw(st.sampled_from(range(8)))
    if p is None:
        entry = st.sampled_from((0, 0, 0, 2, -3, 5, 6, -10, 35, 1))
    else:
        entry = st.one_of(st.just(0), st.just(0), st.integers(0, p - 1))
    nums = []
    for _ in range(r):
        if nums and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(nums)), draw(st.sampled_from(nums))
            s, t = draw(entry), draw(entry)
            row = [s * x + t * y for x, y in zip(a, b)]
        else:
            row = draw(st.lists(entry, min_size=c, max_size=c))
        nums.append(row if p is None else [x % p for x in row])
    dens = [1 if p else draw(st.sampled_from((1, 2, 6, 35))) for _ in range(r)]
    return ExactMatrix.from_ints(nums, dens, c, field)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(zero_heavy_matrices())
# rows 1 and 2 skip the first pivot; row 1 is scaled to it as the second
# pivot row, and row 2 is updated there and becomes the third
@example(M([[2, 1, 1, 1], [0, 3, 1, 1], [0, 5, 7, 1]]))
def test_eliminate_matches_eager_reference(m):
    """The lazily scaled elimination returns what the eager Bareiss loop
    does: pivots, last pivot, parity, scale and each pivot row from its
    pivot column on."""
    rows, pivots, last, parity, scale = _eliminate(m)
    ref_rows, *ref = eliminate_ref(m)
    assert [pivots, last, parity, scale] == ref
    for i, col in enumerate(pivots):
        assert rows[i][col:] == ref_rows[i][col:]


def test_back_substitution_rejects_inexact_division():
    """Rows that are not the echelon form of M leave a remainder over Q."""
    m = M([[2, 1]])
    assert _kernel_vector(m, [[2, 1]], [0], 2, 1) == [-1, 2]
    with pytest.raises(InternalInconsistency):
        _kernel_vector(m, [[2, 1]], [0], 1, 1)


def test_signed_minors_worked_example():
    mv = signed_minors(M([[1, 2]]))
    assert tuple(mv) == (Fraction(2), Fraction(-1))


def test_signed_minors_against_cofactor_oracle():
    rng = random.Random(8)
    for kind, _ in itertools.product(KINDS, range(25)):
        r = rng.randint(1, 4)
        rows = rand_rows(rng, r, r + 1, kind)
        mv = signed_minors(M(rows, field_of(kind)))
        assert len(mv) == r + 1
        for i in range(1, r + 2):
            sub = [row[: i - 1] + row[i:] for row in rows]
            expected = det_cofactor(sub)
            if i % 2 == 0:
                expected = -expected
            assert mv[i - 1] == expected


def test_signed_minors_annihilate():
    rng = random.Random(13)
    hits = 0
    for _ in range(25):
        r = rng.randint(1, 4)
        rows = rand_rows(rng, r, r + 1)
        m = M(rows)
        mv = signed_minors(m)
        assert mul_vector(m, mv) == [Fraction(0)] * r
        if any(mv):
            hits += 1
    assert hits > 15  # random draws are almost always full rank


def test_signed_minors_shape_guard():
    with pytest.raises(ShapeMismatch):
        signed_minors(M([[1, 2, 3]]))
    with pytest.raises(ShapeMismatch):
        signed_minors(M([[1], [2]]))


def _first_gap(m):
    """The first column the full elimination of m gives no pivot, or m.c."""
    pivots = _eliminate(m)[1]
    return next((c for c in range(m.c) if c not in pivots), m.c)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(zero_heavy_matrices())
def test_stopped_elimination_matches_prefix_elimination(m):
    """``_eliminate(M, halt=True)`` pivots every column before the first gap
    of the full elimination and stops there: it is the elimination of the
    prefix up to that gap, with the same pivots and parity, and, on rows
    without a denominator to clear, the same last pivot and rows."""
    gap = _first_gap(m)
    stop = min(gap + 1, m.c)
    prefix = m.select(range(m.r), range(stop))
    _, pivots, _, parity, _ = _eliminate(m, halt=True)
    _, ref_pivots, _, ref_parity, _ = _eliminate(prefix)
    assert pivots == ref_pivots == list(range(gap))
    assert parity == ref_parity
    ones = [1] * m.r
    whole = ExactMatrix.from_ints(m.nums, ones, m.c, m.field)
    head = ExactMatrix.from_ints([row[:stop] for row in m.nums], ones, stop, m.field)
    rows, *got = _eliminate(whole, halt=True)
    ref_rows, *ref = _eliminate(head)
    assert got == ref
    assert [row[:stop] for row in rows] == ref_rows


@settings(max_examples=200, derandomize=True, deadline=None)
@given(zero_heavy_matrices())
def test_unit_column_below_a_stopped_prefix_decides_row_deletion(m):
    """With a zero column and then a unit column e_r per row appended, the
    halted elimination stops at M's first gap g, and C, M's first g
    columns, has full column rank; there the column of e_r vanishes on
    every row below the pivots exactly when deleting row r drops the rank
    of C, and M's columns from the gap on keep rank(M) - g there (the Schur
    complement)."""
    gap = _first_gap(m)
    units = [
        row + [0] + [den if j == i else 0 for j in range(m.r)]
        for i, (row, den) in enumerate(zip(m.nums, m.dens))
    ]
    ext = ExactMatrix.from_ints(units, m.dens, m.c + 1 + m.r, m.field)
    rows, pivots, _, _, _ = _eliminate(ext, halt=True)
    assert pivots == list(range(gap))
    tail = rows[gap:]
    prefix = m.select(range(m.r), range(gap))
    assert rank(prefix) == gap
    for i in range(m.r):
        deleted = m.select([r for r in range(m.r) if r != i], range(gap))
        assert (not any(row[m.c + 1 + i] for row in tail)) == (rank(deleted) < gap)
    rest = [row[gap : m.c] for row in tail]
    rest_rank = rank(ExactMatrix.from_ints(rest, [1] * len(rest), m.c - gap, m.field))
    assert rest_rank == rank(m) - gap
