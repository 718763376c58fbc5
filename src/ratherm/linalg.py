"""Exact dense linear algebra: rank and determinant from one fraction-free
(Bareiss) forward loop, kernel bases from reduced echelon form, signed
maximal minors, and submatrices by index selection.

Row and column indices are 0-based everywhere in this module; the 1-based
minor positions quoted by callers live in :class:`MinorVector`, whose
``value_at`` accessor is 1-based to match the way minors are written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

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
        object.__setattr__(self, "r", len(raw))
        object.__setattr__(self, "c", widths.pop() if widths else 0)
        object.__setattr__(self, "entries", flat)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    def entry(self, i: int, j: int) -> Scalar:
        if not (0 <= i < self.r and 0 <= j < self.c):
            raise ShapeMismatch(f"entry ({i},{j}) outside {self.r}x{self.c}")
        return self.entries[i * self.c + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.c : (i + 1) * self.c]

    def rows_list(self) -> list[list]:
        return [list(self.row(i)) for i in range(self.r)]

    def select(self, rows: Iterable[int], cols: Iterable[int]) -> "ExactMatrix":
        """The submatrix on the given row and column indices, in that order."""
        cols = list(cols)
        e, c = self.entries, self.c
        return ExactMatrix([[e[i * c + j] for j in cols] for i in rows], self.field)

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


def _bareiss(M: ExactMatrix) -> Iterator[tuple[int, Optional[Scalar], bool]]:
    """Forward fraction-free elimination on a copy of M, one column per step.

    Yields (column, pivot, swap parity) until the rows run out.  The pivot
    is the first nonzero entry at or below the current row, or None, and
    the column is then skipped, which keeps the exact division valid.
    """
    a = M.rows_list()
    prev = M.field.one
    parity = False
    row_i = 0
    for col in range(M.c):
        if row_i >= M.r:
            return
        piv = next((rr for rr in range(row_i, M.r) if a[rr][col]), None)
        if piv is None:
            yield col, None, parity
            continue
        if piv != row_i:
            a[row_i], a[piv] = a[piv], a[row_i]
            parity = not parity
        p = a[row_i][col]
        top = a[row_i]
        for rr in range(row_i + 1, M.r):
            row = a[rr]
            factor = row[col]
            for cc in range(col + 1, M.c):
                row[cc] = (p * row[cc] - factor * top[cc]) / prev
        prev = p
        row_i += 1
        yield col, p, parity


def rank(M: ExactMatrix) -> int:
    """Exact rank: the number of Bareiss pivots."""
    return sum(p is not None for _, p, _ in _bareiss(M))


def determinant(M: ExactMatrix) -> Scalar:
    """Exact determinant: the signed last Bareiss pivot, or zero at the
    first column without one.  The empty 0x0 matrix has determinant 1."""
    if M.r != M.c:
        raise ShapeMismatch(f"determinant of a {M.r}x{M.c} matrix")
    det, negate = M.field.one, False
    for _, det, negate in _bareiss(M):
        if det is None:
            return M.field.zero
    return -det if negate else det


def rref(M: ExactMatrix) -> tuple[list[list], list[int]]:
    """Reduced row echelon form (ordinary division) and pivot column list."""
    a = M.rows_list()
    pivots: list[int] = []
    row_i = 0
    for col in range(M.c):
        if row_i >= M.r:
            break
        piv = None
        for rr in range(row_i, M.r):
            if a[rr][col]:
                piv = rr
                break
        if piv is None:
            continue
        a[row_i], a[piv] = a[piv], a[row_i]
        inv = M.field.one / a[row_i][col]
        a[row_i] = [x * inv for x in a[row_i]]
        for rr in range(M.r):
            if rr != row_i and a[rr][col]:
                factor = a[rr][col]
                a[rr] = [x - factor * y for x, y in zip(a[rr], a[row_i])]
        pivots.append(col)
        row_i += 1
    return a, pivots


def kernel_basis(M: ExactMatrix) -> list[tuple]:
    """Basis of the right null space.

    Deterministic: free columns are taken in increasing index order and each
    vector is scaled so its first nonzero coordinate is 1.
    """
    a, pivots = rref(M)
    free = [c for c in range(M.c) if c not in pivots]
    zero, one = M.field.zero, M.field.one
    basis = []
    for f in free:
        v = [zero] * M.c
        v[f] = one
        for prow, pcol in enumerate(pivots):
            v[pcol] = -a[prow][f]
        first = next(x for x in v if x)
        inv = one / first
        basis.append(tuple(x * inv for x in v))
    return basis


def signed_minors(M: ExactMatrix) -> MinorVector:
    """Signed maximal minors of an r x (r+1) matrix.

    Position i (1-based) holds (-1)^(i+1) det(M with column i deleted); the
    alternation makes the vector a kernel member whenever rank(M) = r.  Only
    one elimination plus one determinant is performed (the kernel direction
    fixes all ratios); a per-determinant oracle covers this in tests.  A
    rank-deficient M returns the zero vector, since every maximal minor
    vanishes then.
    """
    if M.r != M.c - 1:
        raise ShapeMismatch(f"signed minors need r = c-1, got {M.r}x{M.c}")
    zero = M.field.zero
    basis = kernel_basis(M)
    if len(basis) != 1:
        return MinorVector(tuple([zero] * M.c))
    v = basis[0]
    i0 = next(i for i, x in enumerate(v) if x)
    anchor = determinant(M.select(range(M.r), [c for c in range(M.c) if c != i0]))
    if i0 % 2 == 1:
        anchor = -anchor
    scale = anchor / v[i0]
    return MinorVector(tuple(x * scale for x in v))
