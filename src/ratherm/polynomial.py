"""Dense univariate polynomials over an exact field.

Coefficients are stored ascending (``coeffs[l]`` multiplies x^l) with
trailing zeros trimmed; the zero polynomial has an empty coefficient tuple
and degree ``MINUS_INFINITY``, which compares less than every integer.

Also here: gcd and the Extended Euclidean table with full row history (the
``eea-trace`` view), the confluent interpolant (node by node, Chinese
remaindering), the node product polynomial, and Taylor coefficients of a
rational function (power-series division, no symbolic quotient rule).

``Poly``'s one arithmetic operator is ``*``, by a scalar or a ``Poly``
(there is no sum, power or division), and it runs on field scalars.
``evaluate``, ``taylor_prefix`` (a Taylor shift at an int node),
``rational_taylor``, ``hermite_interpolant``, ``product_F`` and
``_remainders`` (the one remainder sequence, behind ``gcd``, ``eea``,
``solve_eea`` and ``diagonal_window``) run on cleared-denominator ints
from ``_ints`` and box each result once (``_box``); results become a
``Poly`` unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

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
    _mod,
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

    def __init__(self, coeffs: Iterable = (), field: FieldConfig = RATIONALS):
        lifted = [field.coerce(c) for c in coeffs]
        while lifted and not lifted[-1]:
            lifted.pop()
        object.__setattr__(self, "coeffs", tuple(lifted))
        object.__setattr__(self, "field", field)

    @classmethod
    def _trimmed(cls, coeffs: list, field: FieldConfig) -> "Poly":
        """The polynomial of the list ``coeffs``, already scalars of
        ``field``, taken unchecked: its trailing zeros popped, nothing coerced."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(coeffs))
        object.__setattr__(out, "field", field)
        return out

    @classmethod
    def zero(cls, field: FieldConfig = RATIONALS) -> "Poly":
        return cls((), field)

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

    def __bool__(self):
        return bool(self.coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, PrimeFieldElement)):
            c = self.field.coerce(other)
            return Poly._trimmed([c * a for a in self.coeffs], self.field)
        if not isinstance(other, Poly):
            return NotImplemented
        if other.field != self.field:
            raise MixedFields(f"{self.field} vs {other.field}")
        if self.is_zero or other.is_zero:
            return Poly.zero(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly._trimmed(out, self.field)

    def __call__(self, x0) -> Scalar:
        return evaluate(self, x0)

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


def _ints(field: FieldConfig, xs) -> tuple[list[int], int]:
    """Scalars xs as (int numerators, one positive denominator): over Q the
    lcm of their denominators, 1 for no scalars; over GF(p) residues over 1.
    A node u = a/b becomes ([a], b)."""
    if field.p is None:
        den = math.lcm(*(x.denominator for x in xs))
        return [x.numerator * (den // x.denominator) for x in xs], den
    return [x.residue for x in xs], 1


def _box(field: FieldConfig, nums, den: int = 1) -> list[Scalar]:
    """Each nums[i] / den as a field scalar, built once; den is nonzero
    (mod p over GF(p))."""
    p = field.p
    if p is None:
        return [Fraction(x, den) for x in nums]
    inv = pow(den, -1, p)
    return [_mod(x * inv, p) for x in nums]


def _shift(c: list, d: int, a: int, b: int, count: int, p) -> tuple[list[int], int]:
    """Taylor coefficients at a/b of p(x) = sum_l c[l] x^l / d, as (e, q)
    with the j-th equal to e[j] / q; zero past N = deg p.

    p(x) = P(b x) / (d b^N) with P(X) = sum_l c[l] b^(N-l) X^l, so repeated
    synthetic division of P by X - a (ints throughout) leaves P's Taylor
    coefficients C_j at a, and p's are C_j b^j / (d b^N).  Over GF(p)
    (b = d = 1) the passes run on residues.
    """
    N = len(c) - 1
    cur, bN = list(c), 1
    if p is None:
        for l in range(N - 1, -1, -1):  # bN runs through b^(N-l)
            bN *= b
            cur[l] *= bN
    out, bj = [], 1
    for _ in range(count):
        acc, quot = 0, []
        for x in reversed(cur):
            acc = acc * a + x if p is None else (acc * a + x) % p
            quot.append(acc)
        out.append(quot.pop() * bj if quot else 0)
        cur, bj = quot[::-1], bj * b
    return out, d * bN


def _pseudo_step(R0: list, R: list, p) -> tuple[int, list, list]:
    """One Euclid step on ascending int coefficient lists, R nonzero: over Q
    (p None) lc^e R0 = q R + r with lc = lead R and e = len(q) =
    max(deg R0 - deg R + 1, 0) (pseudo-division, exact in ints); over GF(p)
    on residues, lc^e = 1 and lc inverted.  Returns (lc^e, q, r), r trimmed
    (and reduced over GF(p)); deg R0 < deg R gives q = 0 and r = R0."""
    d, lc = len(R) - 1, R[-1]
    s, inv = (lc ** max(len(R0) - d, 0), 1) if p is None else (1, pow(lc, -1, p))
    r, q = [s * c for c in R0], [0] * (len(R0) - d)
    for top in range(len(r) - 1, d - 1, -1):
        c = q[top - d] = r[top] // lc if p is None else r[top] * inv % p
        r[top - d : top] = [x - c * y for x, y in zip(r[top - d : top], R)]
    r = r[:d] if p is None else [c % p for c in r[:d]]
    while r and not r[-1]:
        r.pop()
    return s, q, r


def evaluate(p: Poly, x0) -> Scalar:
    """p(x0): the 0-th Taylor coefficient, by one Horner pass on ints."""
    return taylor_prefix(p, x0, 1)[0]


def _remainders(R0: list, R: list, p, cofactors: bool):
    """Euclid on ascending int lists R0, R with R nonzero, as a primitive
    remainder sequence (Collins 1967; Brown & Traub 1971): rows
    (P_i, q_i, T_i, s_i, g_i) from (R0, [], [], 1, 1), (R, [], [1], 1, 1)
    to the first zero P_i.  Row i is a ``_pseudo_step``
    s_i P_{i-2} = q_i P_{i-1} + r, s_i = lc^e, with r divided by its content
    g_i over Q (reduced over GF(p), s_i = g_i = 1).  With ``cofactors``,
    T_i = s_i T_{i-2} - q_i T_{i-1}, P_i's Bezout cofactor of R, and g_i is
    the joint content of (r, T); without, T_i is None.  For (F, G) =
    (R0 / d0, R / d1) the remainder is r_i = c_i P_i with c_0 = 1/d0,
    c_1 = 1/d1 and c_i = c_{i-2} g_i / s_i, which the callers that read it
    fold themselves.
    """
    T0, T = ([], [1]) if cofactors else (None, None)
    yield from ((R0, [], T0, 1, 1), (R, [], T, 1, 1))
    while R:
        s, q, r = _pseudo_step(R0, R, p)
        t = None
        if cofactors:
            t = [s * x for x in T0] + [0] * (len(q) + len(T) - 1 - len(T0))
            for i, a in enumerate(q):
                t[i : i + len(T)] = [x - a * y for x, y in zip(t[i : i + len(T)], T)]
        # without T the zero remainder has content 0
        g = (math.gcd(*r, *(t or ())) or 1) if p is None else 1
        r = [x // g for x in r]
        if t is not None:
            t = [x // g if p is None else x % p for x in t]
        (R0, T0), (R, T) = (R, T), (r, t)
        yield R, q, T, s, g


def gcd(p: Poly, q: Poly) -> Poly:
    """Monic greatest common divisor; gcd(p, 0) = monic(p): the last nonzero
    remainder of ``_remainders`` on the content-free int forms, made monic."""
    if p.is_zero and q.is_zero:
        raise BothZero("gcd(0, 0) is undefined")
    if q.field != p.field:
        raise MixedFields(f"{p.field} vs {q.field}")
    ints = (_ints(p.field, P.coeffs)[0] for P in (p, q))
    a, b = sorted(([x // math.gcd(*P) for x in P] for P in ints), key=len, reverse=True)
    g = [P for P, *_ in _remainders(a, b, p.field.p, False) if P][-1]
    return Poly._trimmed(_box(p.field, g, g[-1]), p.field)


def _eea_table(F: Poly, G: Poly) -> list[EEARow]:
    """The rows of ``eea`` followed by the zero row, boxed from one
    ``_remainders`` run.

    With F = R0 / d_F, G = R / L, generator rows (P_i, q_i, T_i, s_i, g_i)
    and c_i folded as ``_remainders`` defines it: R_i = c_i P_i,
    T_i = c_i L T_i (int), and the quotient of rows i-1 and i is
    c_{i-1} q_{i+1} / (lc(P_i)^e c_i), e = len(q_{i+1}), read off the next
    step; the zero row keeps the quotient of the step that produced
    it.  S_i = (R_i - T_i G) / F = c_i d_F (P_i - T_i R) / R0, one exact
    ``_pseudo_step`` per row; a remainder there is a broken invariant.
    Over GF(p) every scale is 1 and the residues are boxed as they are.
    """
    if F.is_zero or G.is_zero:
        raise ZeroInput("eea needs two nonzero polynomials")
    field, p = F.field, F.field.p
    if G.field != field:
        raise MixedFields(f"{field} vs {G.field}")
    (R0, dF), (R, L) = _ints(field, F.coeffs), _ints(field, G.coeffs)

    def box(k: Fraction, xs: list) -> Poly:
        # Fraction * int reduces by gcd(x, den k) only, not by a full gcd
        return Poly._trimmed([k * x for x in xs] if p is None else _box(field, xs), field)

    seq, table, Q = list(_remainders(R0, R, p, True)), [], Poly.zero(field)
    cs = [Fraction(1, dF), Fraction(1, L)]
    for _, _, _, s, g in seq[2:]:
        cs.append(cs[-2] * Fraction(g, s))
    for i, ((P, _, T, _, _), c) in enumerate(zip(seq, cs)):
        if 0 < i < len(seq) - 1:
            q = seq[i + 1][1]
            Q = box(cs[i - 1] / (c * P[-1] ** len(q)), q)
        N = P + [0] * (len(T) + len(R) - 1 - len(P))
        for j, a in enumerate(T):
            N[j : j + len(R)] = [x - a * y for x, y in zip(N[j : j + len(R)], R)]
        N = N if p is None else [x % p for x in N]
        while N and not N[-1]:
            N.pop()
        s, S, rem = _pseudo_step(N, R0, p)
        if rem:
            raise InternalInconsistency(f"F does not divide R_{i} - T_{i} G")
        table.append(EEARow(i, Q, box(c, P), box(c * dF / s, S), box(c * L, T)))
    return table


def eea(F: Poly, G: Poly) -> list[EEARow]:
    """Extended Euclidean table for (F, G).

    Row 0 is (0, 0, F, 1, 0) and row 1 is (1, quo(F, G), G, 0, 1); row i
    carries the remainder of rows i-2 and i-1 and the quotient of rows i-1
    and i.  Remainders are left raw (not made monic) so the degree relations
    between rows hold literally; S_i F + T_i G = R_i on every row.  The run
    stops at the last nonzero remainder (the zero row is not stored).
    """
    return _eea_table(F, G)[:-1]


def hermite_interpolant(data: "HermiteData") -> Poly:
    """The unique G, deg G < n, with G^(j)(u_i) = j! v_{i,j} for all i, j.

    Built node by node on ints (Chinese remaindering).  With u_i = a/b and
    H = prod_{j != i} (b_j x - a_j)^(n_j), G = sum_i H S_i, where S_i,
    deg S_i < n_i, is the power series V / H in y = x - u_i truncated to
    n_i terms, V = sum_t v_{i,t} y^t.  ``_shift`` gives H's Taylor
    coefficients e_t / q at u_i and ``_ints`` gives V = W / L.  The series
    division W / E stays integral as tau_t = e_0^(t+1) sigma_t, so
    S_i = q / (L e_0^n_i b^(n_i-1)) * sum_t tau_t (e_0 b)^(n_i-1-t) (b x - a)^t,
    expanded by Horner.  Over GF(p) (b = q = L = 1) the inputs are residues
    and the factor is e_0^(-n_i) mod p.  The terms are summed over one
    common denominator (1 over GF(p)) and boxed once.
    """
    field, p = data.field, data.field.p
    nodes = data._node_ints()
    total, den = [0] * data.n, 1
    for i, ((a, b, w, L), ni) in enumerate(zip(nodes, data.n_vec)):
        H = [1]
        for j, ((aj, bj, _, _), nj) in enumerate(zip(nodes, data.n_vec)):
            if j == i:
                continue
            for _ in range(nj):
                H = [bj * lo - aj * hi for lo, hi in zip([0] + H, H + [0])]
                H = H if p is None else [c % p for c in H]
        e, q = _shift(H, 1, a, b, ni, p)
        e0, tau = e[0], []
        for t in range(ni):
            acc = w[t] * e0**t - sum(tau[s] * e[t - s] * e0 ** (t - 1 - s) for s in range(t))
            tau.append(acc if p is None else acc % p)
        P = [tau[-1]]
        for t in range(ni - 2, -1, -1):
            P = [b * lo - a * hi for lo, hi in zip([0] + P, P + [0])]
            P[0] += tau[t] * (e0 * b) ** (ni - 1 - t)
        N = [0] * data.n
        for s, x in enumerate(P):
            N[s : s + len(H)] = [y + x * h for y, h in zip(N[s : s + len(H)], H)]
        f = Fraction(q, L * e0**ni * b ** (ni - 1)) if p is None else Fraction(pow(e0, -ni, p))
        lcm = math.lcm(den, f.denominator)
        up, mul = lcm // den, f.numerator * (lcm // f.denominator)
        total, den = [y * up + x * mul for y, x in zip(total, N)], lcm
    return Poly._trimmed(_box(field, total, den), field)


def product_F(data: "HermiteData") -> Poly:
    """The monic node polynomial prod (x - u_i)^{n_i}, degree n: the int
    product prod (b x - a)^{n_i} for u_i = a/b (b = 1 over GF(p), where
    a is the residue), made monic once."""
    out = [1]
    for (a, b, _, _), ni in zip(data._node_ints(), data.n_vec):
        for _ in range(ni):
            out = [b * lo - a * hi for lo, hi in zip([0] + out, out + [0])]
    return Poly._trimmed(_box(data.field, out, out[-1]), data.field)


def taylor_prefix(p: Poly, x0, count: int) -> list[Scalar]:
    """First ``count`` Taylor coefficients c_j of p at x0, where
    p = sum_j c_j (x - x0)^j; zero past deg p.  Computed by ``_shift`` on
    ints, each coefficient boxed once."""
    field = p.field
    (a,), b = _ints(field, (field.coerce(x0),))
    e, q = _shift(*_ints(field, p.coeffs), a, b, count, field.p)
    return _box(field, e, q)


def rational_taylor(A: Poly, B: Poly, x0, count: int) -> list[Scalar]:
    """First ``count`` Taylor coefficients of A/B at x0, requiring B(x0) != 0.

    Series division q_t = (a_t - sum_{s<t} q_s b_{t-s}) / b_0, on ints as in
    ``hermite_interpolant``: with a_t = eA_t / qA, b_t = eB_t / qB
    (``_shift``) and e = eB_0, q_t = Q_t / (qA e^(t+1)) for
    Q_t = qB eA_t e^t - sum_{s<t} Q_s eB_{t-s} e^(t-1-s) (residues over GF(p)).
    """
    if count <= 0:
        return []
    field, p = A.field, A.field.p
    if B.field != field:
        raise MixedFields(f"{field} vs {B.field}")
    (a,), b = _ints(field, (field.coerce(x0),))
    (eA, qA), (eB, qB) = (_shift(*_ints(field, P.coeffs), a, b, count, p) for P in (A, B))
    e, Q = eB[0], []
    if not e:
        raise DivisionByZero("denominator vanishes at the expansion point")
    for t in range(count):
        acc = qB * eA[t] * e**t - sum(Q[s] * eB[t - s] * e ** (t - 1 - s) for s in range(t))
        Q.append(acc if p is None else acc % p)
    return _box(field, [x * e ** (count - 1 - t) for t, x in enumerate(Q)], qA * e**count)
