"""Exact dense linear algebra: rank, determinant, kernel bases and signed
maximal minors, each read off one forward elimination on plain ints
(fraction-free over Q, with unit pivots over GF(p)) and, for kernels and
minors, back substitution on the echelon rows; and submatrices by index
selection.  An :class:`ExactMatrix` stores int rows (numerators over one
row denominator over Q, residues over GF(p)) and never boxes them.
``_minors_and_rank`` hands the signed minors on as ints over one scale,
for callers that need them only up to scale; the public results are boxed
into field scalars once, as they are returned.

Row and column indices are 0-based everywhere in this module, and so are
the positions of a signed-minor tuple: the minor written with 1-based
column i sits at position i-1.
"""

from __future__ import annotations

import math
from typing import Iterable

from .errors import InternalInconsistency, ShapeMismatch
from .field import FieldConfig, Scalar
from .polynomial import _box


class ExactMatrix:
    """Immutable dense matrix over one exact field; r or c may be zero.

    Row i is the int list ``nums[i]`` over the positive int ``dens[i]``;
    over GF(p) residues in 0..p-1 over 1.  Neither is to be mutated.
    :meth:`from_ints` is the only constructor; a slice keeps its master
    row's denominator.
    """

    __slots__ = ("r", "c", "field", "nums", "dens")

    @classmethod
    def from_ints(cls, nums: list, dens: list, c: int, field: FieldConfig) -> "ExactMatrix":
        """The matrix of rows nums[i] / dens[i], taken unchecked."""
        out = object.__new__(cls)
        for name, value in zip(cls.__slots__, (len(nums), c, field, nums, dens)):
            object.__setattr__(out, name, value)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def select(self, rows: Iterable[int], cols: Iterable[int]) -> "ExactMatrix":
        """The submatrix on the given row and column indices, in that order;
        rows keep their denominators, and it has len(cols) columns even when
        no row is selected."""
        rows, cols = list(rows), list(cols)
        nums = [[row[j] for j in cols] for row in (self.nums[i] for i in rows)]
        return ExactMatrix.from_ints(nums, [self.dens[i] for i in rows], len(cols), self.field)


def _eliminate(
    M: ExactMatrix, halt: bool = False
) -> tuple[list[list[int]], list[int], int, bool, int]:
    """One forward elimination over the int rows of M; with ``halt``, it
    stops at the first column that gets no pivot.

    Each row is first put in lowest terms (a slice may not need all of its
    row's denominator); ``scale`` is the product of the denominators left.
    Over Q (Bareiss 1968, lazily scaled) row i is its Bareiss row, whose
    entries are minors of the numerator matrix, times base[i] / prev: prev
    the last pivot, base[i] the pivot of its last update (1 before any).  At
    pivot d a row below with f != 0 in the pivot column becomes
    (d*x - f*y) / base[i] right of it, exactly, y the pivot row's entry, and
    base[i] becomes d; a row with f = 0 is scaled only on becoming the pivot
    row.  Over GF(p) one inverse scales the pivot row to 1, a row below with
    f != 0 becomes x - f*y, and prev is the product of the pivots.  Columns
    with no nonzero entry at or below the current row are skipped.  Pivot
    row i holds the i-th pivot (1 over GF(p)) in column pivots[i], with
    stale entries left of it.  A halted elimination is that of the prefix
    before its gap; a row below the last pivot is then, from the gap on, a
    nonzero multiple of its row of the Schur complement of the pivot block.

    Returns (rows, pivots, last_pivot, parity, scale).  On the pivot
    columns, the numerator rows have determinant (-1)^parity * last_pivot,
    the empty product giving 1.
    """
    p = M.field.p
    gs = [math.gcd(den, *row) for row, den in zip(M.nums, M.dens)]
    rows = [[x // g for x in row] if g > 1 else row for row, g in zip(M.nums, gs)]
    scale = math.prod(den // g for den, g in zip(M.dens, gs))
    base = [1] * M.r
    pivots: list[int] = []
    prev, parity = 1, False
    for col in range(M.c):
        k = len(pivots)
        piv = next((i for i in range(k, M.r) if rows[i][col]), None)
        if piv is None:
            if halt or k == M.r:
                break
            continue
        if piv != k:
            rows[k], rows[piv], base[k], base[piv] = rows[piv], rows[k], base[piv], base[k]
            parity = not parity
        top, lo = rows[k], col + 1
        if p is None and base[k] != prev:
            top = rows[k] = top[:col] + [x * prev // base[k] for x in top[col:]]
        d = top[col]
        if p is not None:
            inv = pow(d, -1, p)
            top = rows[k] = top[:col] + [1] + [y * inv % p for y in top[lo:]]
        tail = top[lo:]
        for i in range(k + 1, M.r):
            row, f = rows[i], rows[i][col]
            if f and p is None:
                rows[i] = row[:lo] + [(d * x - f * y) // base[i] for x, y in zip(row[lo:], tail)]
                base[i] = d
            elif f:
                rows[i] = row[:lo] + [(x - f * y) % p for x, y in zip(row[lo:], tail)]
        pivots.append(col)
        prev = d if p is None else prev * d % p
    return rows, pivots, prev, parity, scale


def _kernel_vector(M: ExactMatrix, rows: list, pivots: list, last: int, f: int) -> list:
    """The integer kernel vector of free column f, by back substitution from
    the last pivot row up: last_pivot at f, zero at the other free columns,
    and v[pivots[i]] = -(sum over j > pivots[i] of rows[i][j] v[j]) divided
    by the pivot rows[i][pivots[i]].

    It is the kernel vector with last_pivot at f, which Cramer's rule makes
    integral, so over Q every division is exact; a remainder means the rows
    are not M's echelon form.  Over GF(p) the pivots are 1.
    """
    p = M.field.p
    v = [0] * M.c
    v[f] = last
    for i in range(len(pivots) - 1, -1, -1):
        col, row = pivots[i], rows[i]
        s = sum(x * y for x, y in zip(row[col + 1 :], v[col + 1 :]) if y)
        if p is not None:
            v[col] = -s % p
            continue
        v[col], rem = divmod(-s, row[col])
        if rem:
            raise InternalInconsistency(
                f"back substitution left remainder {rem} at pivot column {col}"
            )
    return v


def rank(M: ExactMatrix) -> int:
    """Exact rank: the number of pivots."""
    return len(_eliminate(M)[1])


def determinant(M: ExactMatrix) -> Scalar:
    """Exact determinant: the signed last pivot over the row scale, or zero
    without a full pivot set.  The empty 0x0 matrix has determinant 1."""
    if M.r != M.c:
        raise ShapeMismatch(f"determinant of a {M.r}x{M.c} matrix")
    _, pivots, last, parity, scale = _eliminate(M)
    if len(pivots) < M.r:
        return M.field.zero
    return M.field.from_int(-last if parity else last) / M.field.from_int(scale)


def kernel_basis(M: ExactMatrix) -> list[tuple]:
    """Basis of the right null space.

    Deterministic: free columns are taken in increasing index order and each
    vector is scaled so its first nonzero coordinate is 1.
    """
    rows, pivots, last, _, _ = _eliminate(M)
    field = M.field
    basis = []
    for f in [c for c in range(M.c) if c not in pivots]:
        v = _kernel_vector(M, rows, pivots, last, f)
        inv = field.one / field.from_int(next(x for x in v if x))
        basis.append(tuple(field.from_int(x) * inv for x in v))
    return basis


def _minors_and_rank(M: ExactMatrix) -> tuple[list[int], int, int]:
    """(ints, scale, rank) off one elimination: ``signed_minors(M)`` is
    ints / scale.  At full rank ints is the free column f's kernel vector
    times (-1)^(f+parity), residues up to sign over GF(p); below it, zeros
    over 1."""
    if M.r != M.c - 1:
        raise ShapeMismatch(f"signed minors need r = c-1, got {M.r}x{M.c}")
    rows, pivots, last, parity, scale = _eliminate(M)
    if len(pivots) < M.r:
        return [0] * M.c, 1, len(pivots)
    f = next(c for c in range(M.c) if c not in pivots)
    v = _kernel_vector(M, rows, pivots, last, f)
    return ([-x for x in v] if (f + parity) % 2 else v), scale, M.r


def signed_minors(M: ExactMatrix) -> tuple:
    """Signed maximal minors of an r x (r+1) matrix, as an (r+1)-tuple:
    position i-1 holds (-1)^(i+1) det(M with 1-based column i deleted), a
    kernel vector at rank r and zero below it."""
    ints, scale, _ = _minors_and_rank(M)
    return tuple(_box(M.field, ints, scale))
