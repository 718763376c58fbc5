"""Exact dense linear algebra: rank, determinant, kernel bases and signed
maximal minors, all read off one fraction-free Gauss-Jordan pass on plain
ints (row-scaled numerators over Q, residues over GF(p)), and submatrices
by index selection.  Boxed scalars are built only for returned values.

Row and column indices are 0-based everywhere in this module; the 1-based
minor positions quoted by callers live in :class:`MinorVector`, whose
``value_at`` accessor is 1-based to match the way minors are written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ShapeMismatch
from .field import FieldConfig, Scalar, infer_field


class ExactMatrix:
    """Immutable dense matrix over one exact field; r or c may be zero."""

    __slots__ = ("r", "c", "entries", "field")

    def __init__(self, rows: Iterable[Iterable], field: Optional[FieldConfig] = None):
        raw = [list(row) for row in rows]
        widths = {len(row) for row in raw}
        if len(widths) > 1:
            raise ShapeMismatch(f"ragged rows of widths {sorted(widths)}")
        if field is None:
            field = infer_field(x for row in raw for x in row)
        flat = tuple(field.coerce(x) for row in raw for x in row)
        self._fill(len(raw), widths.pop() if widths else 0, flat, field)

    def _fill(self, r: int, c: int, entries: tuple, field: FieldConfig) -> None:
        for name, value in zip(("r", "c", "entries", "field"), (r, c, entries, field)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def row(self, i: int) -> tuple:
        return self.entries[i * self.c : (i + 1) * self.c]

    def rows_list(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.r)]

    def select(self, rows: Iterable[int], cols: Iterable[int]) -> "ExactMatrix":
        """The submatrix on the given row and column indices, in that order.

        It has len(cols) columns even when no row is selected.
        """
        rows, cols = list(rows), list(cols)
        e, c = self.entries, self.c
        flat = tuple(e[i * c + j] for i in rows for j in cols)
        out = object.__new__(ExactMatrix)
        out._fill(len(rows), len(cols), flat, self.field)
        return out

    def mul_vector(self, v) -> list[Scalar]:
        v = list(v)
        if len(v) != self.c:
            raise ShapeMismatch(f"vector of length {len(v)} times {self.r}x{self.c}")
        out = []
        for i in range(self.r):
            acc = self.field.zero
            row = self.row(i)
            for x, y in zip(row, v):
                acc = acc + x * y
            out.append(acc)
        return out

    def __eq__(self, other):
        if isinstance(other, ExactMatrix):
            return (
                self.field == other.field
                and (self.r, self.c) == (other.r, other.c)
                and self.entries == other.entries
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.r, self.c, self.entries))

    def __str__(self):
        if not self.entries:
            return f"<empty {self.r}x{self.c} matrix>"
        cells = [[str(x) for x in self.row(i)] for i in range(self.r)]
        width = max(len(s) for row in cells for s in row)
        return "\n".join(
            "[ " + "  ".join(s.rjust(width) for s in row) + " ]" for row in cells
        )

    def __repr__(self):
        return f"ExactMatrix({self.rows_list()!r})"


@dataclass(frozen=True)
class MinorVector:
    """All signed maximal minors of an r x (r+1) matrix.

    ``values`` holds n+1 scalars; the 1-based position i carries the signed
    i-th maximal minor, so at full rank the vector lies in the kernel of the
    matrix.  ``t`` is optional bookkeeping for minors of a structured family
    (the owner records which member the vector came from).
    """

    values: tuple
    t: Optional[int] = None

    def value_at(self, i: int) -> Scalar:
        """1-based accessor matching written minor indices."""
        if not (1 <= i <= len(self.values)):
            raise ShapeMismatch(f"minor index {i} outside 1..{len(self.values)}")
        return self.values[i - 1]

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def _eliminate(M: ExactMatrix) -> tuple[list[list[int]], list[int], int, bool, int]:
    """One fraction-free Gauss-Jordan pass over plain ints.

    Over Q each row is first multiplied by the lcm of its denominators and
    ``scale`` is the product of those lcms; over GF(p) the rows are the
    residues and ``scale`` is 1.  At each pivot d, every other row becomes
    (d*x - f*y) / prev, with f its entry in the pivot column, y the pivot
    row's entry and prev the previous pivot.  Over Q every entry stays a
    minor of the scaled matrix, so the division is exact (Bareiss 1968);
    over GF(p) it is one inverse per pivot.  A column without a nonzero
    entry at or below the current row is skipped.

    Returns (rows, pivots, last_pivot, parity, scale).  Pivot row i holds
    last_pivot in column pivots[i] and zero in the other pivot columns.
    On the pivot columns, the scaled rows have determinant
    (-1)^parity * last_pivot, the empty product giving 1.
    """
    p = M.field.p
    if p is None:
        rows, scale = [], 1
        for i in range(M.r):
            row = M.row(i)
            lcm = math.lcm(*(x.denominator for x in row))
            rows.append([x.numerator * (lcm // x.denominator) for x in row])
            scale *= lcm
    else:
        rows, scale = [[x.residue for x in M.row(i)] for i in range(M.r)], 1
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
        top = rows[k]
        d = top[col]
        inv = None if p is None else pow(prev, -1, p)
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[col]
            if p is None:
                rows[i] = [(d * x - f * y) // prev for x, y in zip(row, top)]
            else:
                rows[i] = [(d * x - f * y) * inv % p for x, y in zip(row, top)]
        pivots.append(col)
        prev = d
    return rows, pivots, prev, parity, scale


def _kernel_vector(M: ExactMatrix, rows: list, pivots: list, last: int, f: int) -> list:
    """The integer kernel vector of free column f: last_pivot there, minus
    the pivot rows' entries of column f on the pivot columns."""
    v = [0] * M.c
    v[f] = last
    for row, col in zip(rows, pivots):
        v[col] = -row[f]
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


def signed_minors(M: ExactMatrix) -> MinorVector:
    """Signed maximal minors of an r x (r+1) matrix.

    Position i (1-based) holds (-1)^(i+1) det(M with column i deleted); the
    alternation makes the vector a kernel member whenever rank(M) = r.  At
    full rank there is one free column f, and deleting it leaves the pivot
    columns, whose determinant the elimination already holds; so the vector
    is the integer kernel vector of f times (-1)^(f + parity) / scale.  A
    rank-deficient M returns the zero vector, since every maximal minor
    vanishes then.
    """
    if M.r != M.c - 1:
        raise ShapeMismatch(f"signed minors need r = c-1, got {M.r}x{M.c}")
    rows, pivots, last, parity, scale = _eliminate(M)
    field = M.field
    if len(pivots) < M.r:
        return MinorVector(tuple([field.zero] * M.c))
    f = next(c for c in range(M.c) if c not in pivots)
    factor = field.from_int(-1 if (f + parity) % 2 else 1) / field.from_int(scale)
    v = _kernel_vector(M, rows, pivots, last, f)
    return MinorVector(tuple(field.from_int(x) * factor for x in v))
