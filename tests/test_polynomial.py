"""Exact polynomial arithmetic, the Euclidean table, and interpolants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratherm import (
    MINUS_INFINITY,
    BothZero,
    DivisionByZero,
    FieldConfig,
    HermiteData,
    MixedFields,
    Poly,
    ZeroInput,
    eea,
    gcd,
    hermite_interpolant,
    product_F,
    rational_taylor,
    taylor_prefix,
)
from ratherm.polynomial import _eea_table

from oracles import divmod_ref, matrix, monic_ref, poly_add, poly_one, poly_pow, poly_sub

RAT = FieldConfig.rationals()
GF13 = FieldConfig.prime(13)

coeff_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=6)


def P(*coeffs):
    return Poly(coeffs, RAT)


def test_construction_trims_and_degrees():
    assert P(1, 2, 0).degree == 1
    assert P().is_zero
    assert P(0, 0).is_zero
    assert Poly.zero(RAT).degree == MINUS_INFINITY
    assert poly_one(RAT) == P(1)
    assert P(3, 0, 2).lead == Fraction(2)


@pytest.mark.parametrize("field", [RAT, FieldConfig.prime(7)], ids=["Q", "GF7"])
def test_truthiness_is_nonzero(field):
    assert not Poly.zero(field)
    assert bool(Poly((1,), field))


def test_mixed_field_polys_rejected():
    with pytest.raises(MixedFields):
        P(1) * Poly((1,), GF13)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    p, q, r = Poly(a, RAT), Poly(b, RAT), Poly(c, RAT)
    assert poly_add(poly_add(p, q), r) == poly_add(p, poly_add(q, r))
    assert poly_add(p, q) == poly_add(q, p)
    assert p * poly_add(q, r) == poly_add(p * q, p * r)
    assert (p * q) * r == p * (q * r)
    assert poly_sub(p, p) == Poly.zero(RAT)
    if not p.is_zero and not q.is_zero:
        assert (p * q).degree == p.degree + q.degree


@given(coeff_lists, coeff_lists)
def test_divmod_invariant(a, b):
    """The test-side division that ``gcd_ref`` and ``eea_ref`` rest on."""
    p, d = Poly(a, RAT), Poly(b, RAT)
    if d.is_zero:
        with pytest.raises(DivisionByZero):
            divmod_ref(p, d)
        return
    q, r = divmod_ref(p, d)
    assert p == poly_add(q * d, r)
    assert r.degree < d.degree


@given(
    st.sampled_from([RAT, FieldConfig.prime(7), GF13]),
    coeff_lists,
    st.integers(-9, 9),
    st.integers(1, 9),
    st.integers(0, 3),
)
def test_taylor_prefix_rebuilds_polynomial(field, a, num, den, extra):
    # Independent oracle: sum_j c_j (x - x0)^j, rebuilt with polynomial sums
    # and powers, is p itself, and every coefficient past deg p is zero.
    p = Poly(a, field)
    x0 = field.coerce(Fraction(num, den)) if field.p is None else field.from_int(num)
    count = len(p.coeffs) + extra
    c = taylor_prefix(p, x0, count)
    assert len(c) == count
    shift = Poly((-x0, 1), field)
    rebuilt = Poly.zero(field)
    for j in range(len(p.coeffs)):
        rebuilt = poly_add(rebuilt, poly_pow(shift, j) * c[j])
    assert rebuilt == p
    assert not any(c[len(p.coeffs):])


def test_power_and_shift():
    assert poly_pow(P(-1, 1), 3) == P(-1, 3, -3, 1)
    assert poly_pow(P(1, 1), 0) == P(1)
    assert P(1)(Fraction(7)) == Fraction(1)
    assert P(0, 0, 1)(Fraction(3)) == Fraction(9)


def test_monic():
    assert monic_ref(P(2, 4)) == P(Fraction(1, 2), 1)
    assert monic_ref(Poly.zero(RAT)).is_zero


def test_gcd_properties():
    g = P(1, 1)
    p = g * P(2, 0, 1)
    q = g * P(-3, 1)
    got = gcd(p, q)
    assert got == monic_ref(g)
    assert divmod_ref(p, got)[1].is_zero and divmod_ref(q, got)[1].is_zero
    assert gcd(p, Poly.zero(RAT)) == monic_ref(p)
    with pytest.raises(BothZero):
        gcd(Poly.zero(RAT), Poly.zero(RAT))


@given(coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=60)
def test_gcd_common_factor_scaling(a, b, c):
    p, q, g = Poly(a, RAT), Poly(b, RAT), Poly(c, RAT)
    if p.is_zero and q.is_zero:
        return
    if g.is_zero:
        return
    assert gcd(p * g, q * g) == monic_ref(gcd(p, q) * g)


def test_eea_table_shape():
    F = P(-1, 0, 0, 0, 1)  # x^4 - 1
    G = P(-1, 0, 1)  # x^2 - 1
    rows = eea(F, G)
    assert rows[0].remainder == F and rows[0].bezout_s == P(1)
    assert rows[1].remainder == G and rows[1].bezout_t == P(1)
    for row in rows:
        assert poly_add(row.bezout_s * F, row.bezout_t * G) == row.remainder
    # x^2 - 1 divides x^4 - 1: table stops at the last nonzero remainder
    assert rows[-1].remainder == G
    term = _eea_table(F, G)[-1]
    assert term.index == len(rows) and term.remainder.is_zero
    assert poly_add(term.bezout_s * F, term.bezout_t * G) == Poly.zero(RAT)
    assert gcd(F, G) == monic_ref(G)


def test_eea_rejects_zero():
    with pytest.raises(ZeroInput):
        eea(Poly.zero(RAT), P(1))
    with pytest.raises(ZeroInput):
        eea(P(1), Poly.zero(RAT))


def test_eea_degree_relations():
    import random

    rng = random.Random(11)
    for _ in range(40):
        F = Poly([rng.randint(-9, 9) for _ in range(rng.randint(2, 7))] + [1], RAT)
        dg = rng.randint(1, F.degree)
        G = Poly([rng.randint(-9, 9) for _ in range(dg)] + [rng.randint(1, 5)], RAT)
        rows = eea(F, G)
        for idx in range(1, len(rows)):
            prev_deg = rows[idx - 1].remainder.degree
            assert rows[idx].bezout_t.degree == F.degree - prev_deg
            assert rows[idx].bezout_s.degree <= G.degree - prev_deg
        for row in rows:
            assert gcd(row.remainder, row.bezout_t) == gcd(F, row.bezout_t)
        for idx in range(2, len(rows)):
            assert rows[idx].remainder.degree < rows[idx - 1].remainder.degree


def test_hermite_interpolant_conditions():
    import random

    rng = random.Random(3)
    for trial in range(25):
        shape = rng.choice([(2, 1), (3, 2), (1, 1, 1), (4,)])
        u = rng.sample(range(-8, 9), len(shape))
        v = tuple(
            tuple(Fraction(rng.randint(-9, 9)) for _ in range(ni)) for ni in shape
        )
        data = HermiteData(u, shape, v, 1, RAT)
        G = hermite_interpolant(data)
        assert G.degree < data.n
        for i, ni in enumerate(shape):
            assert taylor_prefix(G, data.u[i], ni) == list(v[i])


def test_hermite_interpolant_dense_solve_oracle(golden):
    # independent construction: solve the linear system in the monomial
    # coefficients directly
    from ratherm import kernel_basis

    G = hermite_interpolant(golden)
    n = golden.n
    rows = []
    rhs = []
    for i, ni in enumerate(golden.n_vec):
        for j in range(ni):
            row = []
            for l in range(n):
                mono = Poly([0] * l + [1], RAT)
                row.append(taylor_prefix(mono, golden.u[i], j + 1)[j])
            rows.append(row)
            rhs.append(golden.v[i][j])
    # homogenize: [rows | -rhs] kernel with last coordinate 1
    M = matrix([r + [-b] for r, b in zip(rows, rhs)], RAT)
    basis = kernel_basis(M)
    assert len(basis) == 1
    vec = basis[0]
    scale = vec[-1]
    assert scale
    coeffs = [c / scale for c in vec[:-1]]
    assert Poly(coeffs, RAT) == G
    assert G == P(0, 2, -1)


def test_product_F():
    data = HermiteData((1, 2), (2, 1), ((1, 0), (0,)), 2, RAT)
    F = product_F(data)
    assert F == poly_pow(P(-1, 1), 2) * P(-2, 1)
    assert F.degree == data.n
    assert F.lead == Fraction(1)


def test_rational_taylor_reconstructs_series():
    A = P(1, 2)
    B = P(1, 0, 3)
    x0 = Fraction(1, 2)
    count = 6
    q = rational_taylor(A, B, x0, count)
    shifted = Poly((-x0, 1), RAT)
    # A - B * sum q_t (x - x0)^t must vanish to order count at x0
    acc = Poly.zero(RAT)
    basis = poly_one(RAT)
    for c in q:
        acc = poly_add(acc, basis * c)
        basis = basis * shifted
    residue = poly_sub(A, B * acc)
    assert all(x == 0 for x in taylor_prefix(residue, x0, count))
    with pytest.raises(DivisionByZero):
        rational_taylor(A, Poly((Fraction(-1, 2), 1), RAT), x0, 3)


def test_poly_json_round_trip():
    for p in (P(), P(1, 0, Fraction(2, 3)), P(-5)):
        assert Poly([RAT.parse_scalar(c) for c in p.to_json()], RAT) == p
    assert P().to_json() == []
    q = Poly((1, 5), GF13)
    assert Poly([GF13.parse_scalar(c) for c in q.to_json()], GF13) == q


def test_str_smoke():
    assert str(Poly.zero(RAT)) == "0"
    s = str(P(-1, 2, 1))
    assert "x" in s
