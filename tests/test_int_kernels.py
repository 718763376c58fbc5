"""The int kernels against the field-scalar loops of ``tests/oracles.py``.

``evaluate``, ``taylor_prefix``, ``whip_residual``, ``gcd`` and
``hermite_interpolant`` run on cleared-denominator ints and box their
results; every value must equal the reference exactly, over Q with node and
value denominators up to 10 and over GF(5), GF(7) and GF(1000003).  The
int remainder sequence ``_remainders`` is checked row by row against the
field-scalar table ``eea_ref``, the Euclidean route it ends against that
table's cut row, and ``eea``, boxed from ``_remainders``, against
``eea_ref`` field by field.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    classify_minimal_ref,
    eea_ref,
    evaluate_ref,
    from_pair_ref,
    gcd_ref,
    hermite_interpolant_ref,
    monic_ref,
    poly_one,
    taylor_prefix_ref,
    whip_residual_ref,
)
from ratherm import (
    FieldConfig,
    HermiteData,
    Poly,
    eea,
    polynomial,
    evaluate,
    gcd,
    hermite_interpolant,
    product_F,
    solve_eea,
    taylor_prefix,
    whip_residual,
)
from ratherm.polynomial import _eea_table, _ints, _pseudo_step, _remainders
from ratherm.problem import RationalSolution, witness_nodes

RAT = FieldConfig.rationals()
FIELDS = [RAT, FieldConfig.prime(5), FieldConfig.prime(7), FieldConfig.prime(1000003)]


def scalars(field):
    """Field scalars, about half of them zero."""
    if field.p is None:
        nonzero = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 10))
    else:
        nonzero = st.integers(0, field.p - 1).map(field.from_int)
    return st.one_of(st.just(field.zero), nonzero)


def polys(field, max_size=7):
    return st.lists(scalars(field), max_size=max_size).map(lambda c: Poly(c, field))


@st.composite
def field_poly_node(draw):
    field = draw(st.sampled_from(FIELDS))
    return field, draw(polys(field)), draw(scalars(field))


@given(field_poly_node(), st.integers(0, 4))
def test_taylor_prefix_and_evaluate_match_reference(fpx, extra):
    field, p, x0 = fpx
    count = len(p.coeffs) + extra  # past deg + 1 whenever extra > 0
    assert taylor_prefix(p, x0, count) == taylor_prefix_ref(p, x0, count)
    assert evaluate(p, x0) == evaluate_ref(p, x0)


def test_zero_polynomial_and_empty_prefix():
    for field in FIELDS:
        zero, x0 = Poly.zero(field), field.from_int(3)
        assert taylor_prefix(zero, x0, 3) == [field.zero] * 3 == taylor_prefix_ref(zero, x0, 3)
        assert evaluate(zero, x0) == field.zero
        assert taylor_prefix(poly_one(field), x0, 0) == []


@st.composite
def problems(draw, max_nodes=3, max_mult=3):
    """Problem data: distinct nodes (fractional over Q), multiplicities up
    to ``max_mult`` and zero-heavy values."""
    field = draw(st.sampled_from(FIELDS))
    if field.p is None:
        node = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 10))
    else:
        node = st.integers(0, field.p - 1).map(field.from_int)
    u = draw(st.lists(node, min_size=1, max_size=max_nodes, unique=True))
    n_vec = draw(st.lists(st.integers(1, max_mult), min_size=len(u), max_size=len(u)))
    v = [draw(st.lists(scalars(field), min_size=ni, max_size=ni)) for ni in n_vec]
    k = draw(st.integers(1, sum(n_vec)))
    return HermiteData(u, n_vec, v, k, field)


@st.composite
def instances(draw):
    """(data, pair): 1-3 nodes of multiplicity 1-3, zero-heavy values and a
    pair of arbitrary degrees (not necessarily a solution)."""
    data = draw(problems())
    return data, RationalSolution(draw(polys(data.field)), draw(polys(data.field)))


@settings(max_examples=150)
@given(instances())
def test_whip_residual_and_witness_nodes_match_reference(inst):
    data, sol = inst
    assert whip_residual(data, sol) == whip_residual_ref(data, sol)
    want = tuple(i for i, ui in enumerate(data.u) if not evaluate_ref(sol.B, ui))
    assert witness_nodes(data, _ints(data.field, sol.B.coeffs)[0]) == want


@settings(max_examples=150)
@given(problems(max_nodes=4, max_mult=4))
def test_hermite_interpolant_matches_reference(data):
    assert hermite_interpolant(data) == hermite_interpolant_ref(data)


@st.composite
def gcd_inputs(draw):
    """Two polynomials over one field, sharing a drawn factor half the time."""
    field = draw(st.sampled_from(FIELDS))
    p, q = draw(polys(field, 5)), draw(polys(field, 5))
    g = draw(st.one_of(st.just(poly_one(field)), polys(field, 3)))
    return (p, q) if g.is_zero else (p * g, q * g)


@settings(max_examples=150)
@given(gcd_inputs())
def test_gcd_matches_reference(pq):
    p, q = pq
    if p.is_zero and q.is_zero:
        return
    assert gcd(p, q) == gcd_ref(p, q) == gcd(q, p)


@settings(max_examples=60, deadline=None)
@given(polys(RAT, 5), polys(RAT, 5), polys(RAT, 3), st.integers(2**200, 2**260), st.integers(1, 2**40))
def test_gcd_divides_out_a_large_shared_content(p, q, g, content, extra):
    """Over Q, inputs sharing a large integer content (p carrying one more
    factor) and half the time a common factor g give ``gcd_ref``'s answer,
    and ``_remainders`` sees only content-free int rows."""
    if g.is_zero:
        g = poly_one(RAT)
    p, q = p * g * Poly((content * extra,), RAT), q * g * Poly((content,), RAT)
    if p.is_zero and q.is_zero:
        return
    seen = []
    inner = polynomial._remainders

    def spy(R0, R, prime, cofactors):
        seen.append((R0, R))
        return inner(R0, R, prime, cofactors)

    polynomial._remainders = spy
    try:
        got = gcd(p, q)
    finally:
        polynomial._remainders = inner
    assert got == gcd_ref(p, q)
    assert seen and all(math.gcd(*P) == 1 for pair in seen for P in pair if P)


def test_gcd_of_non_coprime_inputs():
    for field in (RAT, FieldConfig.prime(7)):
        g = Poly((field.from_int(2), field.from_int(3), field.one), field)  # (x + 1)(x + 2)
        p = g * Poly((field.from_int(3), field.one), field)
        q = g * g * Poly((field.from_int(-1), field.from_int(4)), field)
        assert gcd(p, q) == gcd_ref(p, q) == g
        assert gcd(p, Poly.zero(field)) == monic_ref(p)
    half = Poly((Fraction(1, 2), Fraction(-3, 7)), RAT)
    assert gcd(half * Poly((1, 1), RAT), half * Poly((2, 1), RAT)) == monic_ref(half)


GOLDEN = [
    HermiteData.from_json_dict(doc)
    for doc in json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text())["documents"]
]


def remainder_rows(data, cofactors=True):
    """(F, G) = (``product_F``, ``hermite_interpolant``), G's denominator L
    and the rows (P_i, q_i, T_i, c_i) of ``_remainders`` on their int forms,
    c_0 = 1/d_F, c_1 = 1/L and c_i = c_{i-2} g_i / s_i folded here."""
    F, G = product_F(data), hermite_interpolant(data)
    (F_int, dF), (G_int, L) = _ints(data.field, F.coeffs), _ints(data.field, G.coeffs)
    rows, cs = list(_remainders(F_int, G_int, data.field.p, cofactors)), [Fraction(1, dF), Fraction(1, L)]
    for _, _, _, s, g in rows[2:]:
        cs.append(cs[-2] * Fraction(g, s))
    return F, G, L, [(P, q, T, c) for (P, q, T, _, _), c in zip(rows, cs)]


def scaled(field, c, xs):
    """c * xs as a Poly; c is 1 over GF(p)."""
    if field.p is not None:
        assert c == 1
        return Poly(xs, field)
    return Poly([c * x for x in xs], field)


@settings(max_examples=150)
@given(problems(max_nodes=3, max_mult=4))
def test_remainder_rows_match_eea_table(data):
    """r_i = c_i P_i and t_i = c_i L T_i on every row, the zero row included;
    without cofactors the rows carry no T_i and still give r_i = c_i P_i."""
    F, G, L, rows = remainder_rows(data)
    _, _, _, bare = remainder_rows(data, cofactors=False)
    if G.is_zero:
        assert [P for P, _, _, _ in rows] == [P for P, _, _, _ in bare] == [rows[0][0], []]
        return
    table = eea_ref(F, G)
    assert len(rows) == len(bare) == len(table)
    for (P, _, T, c), (P_bare, _, T_bare, c_bare), row in zip(rows, bare, table):
        assert scaled(data.field, c, P) == scaled(data.field, c_bare, P_bare) == row.remainder
        assert scaled(data.field, c * L, T) == row.bezout_t
        assert T_bare is None


def test_eea_route_matches_eea_table_cut_on_golden_documents():
    """``solve_eea`` gives the verdict and pair of the field-scalar table's
    first row of degree <= k-1 (the zero row when none is)."""
    for data in GOLDEN:
        F, G = product_F(data), hermite_interpolant(data)
        if G.is_zero:
            R, T = G, poly_one(data.field)
        else:
            cut = next(row for row in eea_ref(F, G) if row.remainder.degree < data.k)
            R, T = cut.remainder, cut.bezout_t
        ref = from_pair_ref(data, R, T)
        assert solve_eea(data) == (ref, classify_minimal_ref(data, ref))


def nonzero_polys(field, min_degree=0, max_degree=6):
    """Zero-heavy coefficients under a drawn nonzero lead, so F is rarely
    monic."""
    if field.p is None:
        lead = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 10))
    else:
        lead = st.integers(1, field.p - 1).map(field.from_int)
    low = st.lists(scalars(field), min_size=min_degree, max_size=max_degree)
    return st.builds(lambda cs, c: Poly(cs + [c], field), low, lead)


@st.composite
def eea_inputs(draw):
    """(F, G), both nonzero, over one field: deg F above, equal to or below
    deg G (below deg G - 1 included); half the time times a shared factor
    of degree >= 1."""
    field = draw(st.sampled_from(FIELDS))
    F, G = draw(nonzero_polys(field)), draw(nonzero_polys(field))
    if draw(st.booleans()):
        H = draw(nonzero_polys(field, 1, 3))
        F, G = F * H, G * H
    return F, G


def assert_table_matches_reference(F, G):
    """Every field of every row, quotients included, the zero row too."""
    want = eea_ref(F, G)
    assert _eea_table(F, G) == want
    assert eea(F, G) == want[:-1]


@settings(max_examples=200)
@given(eea_inputs())
def test_eea_matches_reference(FG):
    assert_table_matches_reference(*FG)


@settings(max_examples=100)
@given(problems(max_nodes=3, max_mult=4))
def test_eea_matches_reference_on_node_polynomial_and_interpolant(data):
    """(F, G) = (``product_F``, ``hermite_interpolant``), fractional nodes over Q."""
    F, G = product_F(data), hermite_interpolant(data)
    if not G.is_zero:
        assert_table_matches_reference(F, G)


def test_eea_matches_reference_on_degree_orders():
    """deg F < deg G - 1, deg F = deg G - 1, deg F = deg G, a non-monic F
    and a shared factor, over Q and GF(7)."""
    for field in (RAT, FieldConfig.prime(7)):
        H = Poly((field.from_int(2), field.from_int(-3)), field)  # -3x + 2
        F = Poly((field.from_int(3), field.zero, field.from_int(5)), field)  # 5x^2 + 3
        # x^5 + 1, x^3 - x, 4x^2 + x, x + 2, x^4
        for cs in ((1, 0, 0, 0, 0, 1), (0, -1, 0, 1), (0, 1, 4), (2, 1), (0, 0, 0, 0, 1)):
            G = Poly(cs, field)
            assert_table_matches_reference(F, G)
            assert_table_matches_reference(G, F)
            assert_table_matches_reference(F * H, G * H)
    rows = eea(Poly((1, 2), RAT), Poly((1, 0, 0, 3), RAT))
    assert rows[1].quotient.is_zero and rows[2].remainder == Poly((1, 2), RAT)


def test_pseudo_step_below_the_divisor_degree():
    """deg R0 < deg R - 1 clamps the exponent at 0: q = 0 and r = R0, ints."""
    assert _pseudo_step([1, 2], [1, 0, 0, 3], None) == (1, [], [1, 2])
    assert _pseudo_step([1, 2], [1, 0, 0, 3], 7) == (1, [], [1, 2])
    assert _pseudo_step([], [1, 0, 0, 3], None) == (1, [], [])
    assert _pseudo_step([5, 0, 2], [1, 0, 0, 3], None) == (1, [], [5, 0, 2])
