"""Dense univariate polynomials over an exact field.

Coefficients are stored ascending (``coeffs[l]`` multiplies x^l) with
trailing zeros trimmed; the zero polynomial has an empty coefficient tuple
and degree ``MINUS_INFINITY``, which compares less than every integer.

Also here: gcd and the Extended Euclidean table with full row history (the
``eea-trace`` view; ``solvers.solve_eea`` runs its own int Euclid), the
confluent interpolant (divided differences, Horner expansion), the node
product polynomial (built in ints), and Taylor coefficients of a rational
function (power-series division, no symbolic quotient rule).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional

from .errors import (
    BothZero,
    DivisionByZero,
    InternalInconsistency,
    MixedFields,
    ZeroInput,
)
from .field import (
    RATIONALS,
    FieldConfig,
    PrimeFieldElement,
    Scalar,
    infer_field,
    sealed,
)

if TYPE_CHECKING:  # pragma: no cover
    from .problem import HermiteData

MINUS_INFINITY = float("-inf")


@sealed
@dataclass(frozen=True, slots=True, init=False)
class Poly:
    """Immutable dense polynomial over a fixed FieldConfig."""

    coeffs: tuple
    field: FieldConfig

    def __init__(self, coeffs: Iterable = (), field: Optional[FieldConfig] = None):
        raw = list(coeffs)
        if field is None:
            field = infer_field(raw)
        lifted = [field.coerce(c) for c in raw]
        while lifted and not lifted[-1]:
            lifted.pop()
        object.__setattr__(self, "coeffs", tuple(lifted))
        object.__setattr__(self, "field", field)

    @classmethod
    def zero(cls, field: FieldConfig = RATIONALS) -> "Poly":
        return cls((), field)

    @classmethod
    def one(cls, field: FieldConfig = RATIONALS) -> "Poly":
        return cls((1,), field)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Scalar:
        if not self.coeffs:
            raise ZeroInput("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _join(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.field != self.field:
                raise MixedFields(f"{self.field} vs {other.field}")
            return other
        if isinstance(other, (int, Fraction, PrimeFieldElement)):
            return Poly((self.field.coerce(other),), self.field)
        return NotImplemented

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        o = self._join(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out, self.field)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.field)

    def __sub__(self, other):
        o = self._join(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._join(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PrimeFieldElement)):
            c = self.field.coerce(other)
            return Poly([c * a for a in self.coeffs], self.field)
        o = self._join(other)
        if o is NotImplemented:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out, self.field)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ZeroInput("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other):
        o = self._join(other)
        if o is NotImplemented:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if self.degree < o.degree:
            return Poly.zero(self.field), self
        rem = list(self.coeffs)
        d = len(o.coeffs) - 1
        lead_inv = self.field.one / o.lead
        quot = [self.field.zero] * (len(rem) - d)
        for top in range(len(rem) - 1, d - 1, -1):
            c = rem[top]
            if not c:
                continue
            q = c * lead_inv
            quot[top - d] = q
            for j in range(d + 1):
                rem[top - d + j] = rem[top - d + j] - q * o.coeffs[j]
        return Poly(quot, self.field), Poly(rem, self.field)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x0) -> Scalar:
        return evaluate(self, x0)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self * (self.field.one / self.lead)

    def to_json(self):
        return [self.field.format_scalar(c) for c in self.coeffs]

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for l in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[l]
            if not c:
                continue
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if "/" in cs or " " in cs:
                cs = f"({cs})"
            if l == 0:
                term = cs
            else:
                xs = "x" if l == 1 else f"x^{l}"
                term = xs if cs == "1" else f"{cs}{xs}"
            if not parts:
                parts.append(f"-{term}" if neg else term)
            else:
                parts.append(f"- {term}" if neg else f"+ {term}")
        return " ".join(parts)


@dataclass(frozen=True)
class EEARow:
    """One row (i, Q_i, R_i, S_i, T_i) of the extended Euclidean table."""

    index: int
    quotient: Poly
    remainder: Poly
    bezout_s: Poly
    bezout_t: Poly


def evaluate(p: Poly, x0) -> Scalar:
    """Horner evaluation."""
    x0 = p.field.coerce(x0)
    acc = p.field.zero
    for c in reversed(p.coeffs):
        acc = acc * x0 + c
    return acc


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) = monic(p)."""
    if p.is_zero and q.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    a, b = p, q
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def eea(F: Poly, G: Poly) -> list[EEARow]:
    """Extended Euclidean table for (F, G).

    Row 0 is (0, 0, F, 1, 0) and row 1 is (1, quo(F, G), G, 0, 1); row i
    carries the remainder of rows i-2 and i-1 and the quotient of rows i-1
    and i.  Remainders are left raw (not made monic) so the degree relations
    between rows hold literally; S_i F + T_i G = R_i on every row.  The run
    stops at the last nonzero remainder (the zero row is not stored).
    """
    if F.is_zero or G.is_zero:
        raise ZeroInput("eea needs two nonzero polynomials")
    field = F.field
    if G.field != field:
        raise MixedFields(f"{field} vs {G.field}")
    zero, one = Poly.zero(field), Poly.one(field)
    rows = [EEARow(0, zero, F, one, zero)]
    prev = (F, one, zero)
    cur = (G, zero, one)
    i = 1
    while True:
        q, r = divmod(prev[0], cur[0])
        rows.append(EEARow(i, q, cur[0], cur[1], cur[2]))
        if r.is_zero:
            return rows
        prev, cur = cur, (r, prev[1] - q * cur[1], prev[2] - q * cur[2])
        i += 1


def terminal_row(rows: list[EEARow]) -> EEARow:
    """The zero-remainder row following the stored table.

    Needed when no stored remainder meets a degree cut: its Bezout pair
    still satisfies S F + T G = 0 exactly.
    """
    if len(rows) < 2:
        raise InternalInconsistency("eea table has no division step")
    a, b = rows[-2], rows[-1]
    q = a.remainder // b.remainder
    return EEARow(
        b.index + 1,
        q,
        Poly.zero(b.remainder.field),
        a.bezout_s - q * b.bezout_s,
        a.bezout_t - q * b.bezout_t,
    )


def hermite_interpolant(data: "HermiteData") -> Poly:
    """The unique G, deg G < n, with G^(j)(u_i) = j! v_{i,j} for all i, j.

    Built by Newton divided differences on the node multiset; a confluent
    entry spanning j+1 copies of u_i is v_{i,j} directly.  The Newton form
    is expanded on a coefficient list by Horner, c <- c (x - z_b) + dd[0][b].
    """
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


def product_F(data: "HermiteData") -> Poly:
    """The monic node polynomial prod (x - u_i)^{n_i}, degree n: over Q,
    prod (b x - a)^{n_i} for u_i = a/b in ints, made monic once; over GF(p),
    prod (x - u_i)^{n_i} on residues."""
    out = [1]
    for ui, ni in zip(data.u, data.n_vec):
        a, b = (ui.numerator, ui.denominator) if data.field.p is None else (ui.residue, 1)
        for _ in range(ni):
            out = [b * lo - a * hi for lo, hi in zip([0] + out, out + [0])]
    return Poly(out, data.field).monic()


def taylor_prefix(p: Poly, x0, count: int) -> list[Scalar]:
    """First ``count`` Taylor coefficients c_j of p at x0, where
    p = sum_j c_j (x - x0)^j; zero past deg p.

    Repeated synthetic division by x - x0 on the coefficient list: each
    Horner pass leaves the remainder p_j(x0) = c_j and the quotient p_{j+1}.
    """
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


def rational_taylor(A: Poly, B: Poly, x0, count: int) -> list[Scalar]:
    """First ``count`` Taylor coefficients of A/B at x0.

    Power-series division: q_t = (a_t - sum_{s<t} q_s b_{t-s}) / b_0,
    requiring B(x0) != 0.
    """
    if count <= 0:
        return []
    a = taylor_prefix(A, x0, count)
    b = taylor_prefix(B, x0, count)
    if not b[0]:
        raise DivisionByZero("denominator vanishes at the expansion point")
    q: list[Scalar] = []
    for t in range(count):
        acc = a[t]
        for s in range(t):
            acc = acc - q[s] * b[t - s]
        q.append(acc / b[0])
    return q
