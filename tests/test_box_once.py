"""The int view and box-once plumbing against the routines they replaced.

``master_matrix`` (columns by the (a + b y) recurrence), ``rational_taylor``
(series division on ints), ``rhip_check`` (one pass of two Taylor shifts
per node) and ``MinimalSolution.from_pair`` (int lists boxed once) must
equal ``master_matrix_ref``, ``rational_taylor_ref``, ``rhip_check_ref``
and ``from_pair_ref`` exactly, over Q (fractional nodes and values), GF(7)
and GF(1000003): on zero-heavy draws, pairs with A = 0, denominators
vanishing at a node, and the 240 zero-heavy documents of the golden corpus
generator.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratherm import FieldConfig, HermiteData, MinimalSolution, Poly, solve_kernel
from ratherm.errors import DivisionByZero, InternalInconsistency
from ratherm.polynomial import _ints, product_F, rational_taylor
from ratherm.problem import RationalSolution, master_matrix, rhip_check

from oracles import (
    from_pair_ref,
    master_matrix_ref,
    poly_add,
    poly_one,
    poly_pow,
    rational_taylor_ref,
    rhip_check_ref,
)
from test_golden_cli import _low_entropy_documents

FIELDS = [FieldConfig.rationals(), FieldConfig.prime(7), FieldConfig.prime(1000003)]


@pytest.fixture(scope="module")
def zero_heavy():
    return [HermiteData.from_json_dict(doc) for doc in _low_entropy_documents(120, 120)]


def scalars(field):
    """Field scalars, about half of them zero; fractions over Q."""
    if field.p is None:
        nonzero = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 10))
    else:
        nonzero = st.integers(0, field.p - 1).map(field.from_int)
    return st.one_of(st.just(field.zero), nonzero)


@st.composite
def problems(draw):
    """1-4 distinct nodes of multiplicity 1-4 and zero-heavy values."""
    field = draw(st.sampled_from(FIELDS))
    node = scalars(field).filter(bool) if draw(st.booleans()) else scalars(field)
    u = draw(st.lists(node, min_size=1, max_size=4, unique=True))
    n_vec = draw(st.lists(st.integers(1, 4), min_size=len(u), max_size=len(u)))
    v = [draw(st.lists(scalars(field), min_size=ni, max_size=ni)) for ni in n_vec]
    return HermiteData(u, n_vec, v, draw(st.integers(1, sum(n_vec))), field)


def polys(field, max_size=6):
    return st.lists(scalars(field), max_size=max_size).map(lambda c: Poly(c, field))


def _same_master(data):
    got, want = master_matrix(data), master_matrix_ref(data)
    assert (got.nums, got.dens, got.c) == (want.nums, want.dens, want.c)


@settings(max_examples=150)
@given(problems())
def test_master_matrix_matches_binomial_reference(data):
    _same_master(data)


def test_master_matrix_matches_reference_on_zero_heavy_documents(zero_heavy):
    for data in zero_heavy:
        _same_master(data)


def _outcome(f, *args):
    try:
        return f(*args)
    except (DivisionByZero, InternalInconsistency) as exc:
        return type(exc)


@st.composite
def taylor_inputs(draw):
    """(A, B, x0, count); B vanishes at x0 about a quarter of the time."""
    field = draw(st.sampled_from(FIELDS))
    A, B, x0 = draw(polys(field)), draw(polys(field)), draw(scalars(field))
    if draw(st.booleans()):
        B = poly_add(B * Poly((-x0, field.one), field), Poly((field.one if draw(st.booleans()) else field.zero,), field))
    return A, B, x0, draw(st.integers(0, 6))


@settings(max_examples=300)
@given(taylor_inputs())
def test_rational_taylor_matches_fraction_series(case):
    A, B, x0, count = case
    assert _outcome(rational_taylor, A, B, x0, count) == _outcome(rational_taylor_ref, A, B, x0, count)


def test_product_F_is_the_monic_node_product(zero_heavy):
    for data in zero_heavy[::8]:
        want = poly_one(data.field)
        for ui, ni in zip(data.u, data.n_vec):
            want = want * poly_pow(Poly((-ui, 1), data.field), ni)
        assert product_F(data) == want


def _pairs(data, extra):
    """The minimal pair, the pair times (x - u_0) (B vanishes at node 0),
    the pair with A = 0, and ``extra``."""
    minsol, _ = solve_kernel(data)
    A0, B0 = minsol.A0, minsol.B0
    root = Poly((-data.u[0], data.field.one), data.field)
    return [(A0, B0), (A0 * root, B0 * root), (Poly.zero(data.field), B0)] + extra


@settings(max_examples=150)
@given(problems(), st.data())
def test_rhip_check_matches_residual_and_node_reference(data, draw):
    extra = [(draw.draw(polys(data.field)), draw.draw(polys(data.field)))]
    for A, B in _pairs(data, extra):
        sol = RationalSolution(A, B)
        assert rhip_check(data, sol) == rhip_check_ref(data, sol)


def test_rhip_check_matches_reference_on_zero_heavy_documents(zero_heavy):
    verdicts = set()
    for data in zero_heavy:
        for A, B in _pairs(data, []):
            sol = RationalSolution(A, B)
            verdicts.add(rhip_check(data, sol))
            assert rhip_check(data, sol) == rhip_check_ref(data, sol)
    assert verdicts == {True, False}


def int_lists(field, max_size=6):
    """Zero-heavy int coefficients: residues over GF(p), small ints over Q."""
    entry = st.integers(-9, 9) if field.p is None else st.integers(0, field.p - 1)
    return st.lists(st.one_of(st.just(0), entry), max_size=max_size)


@settings(max_examples=300)
@given(problems(), st.data())
def test_from_pair_matches_poly_reference(data, draw):
    field = data.field
    A, B = draw.draw(int_lists(field)), draw.draw(int_lists(field))
    if draw.draw(st.booleans()):
        A = [0] * len(A)
    got = _outcome(MinimalSolution.from_pair, data, A, B)
    assert got == _outcome(from_pair_ref, data, Poly(A, field), Poly(B, field))


def test_from_pair_matches_reference_on_zero_heavy_documents(zero_heavy):
    """The minimal pair, cleared to ints and scaled, comes back unchanged."""
    for data in zero_heavy:
        minsol, _ = solve_kernel(data)
        field, a = data.field, len(minsol.A0.coeffs)
        ints = _ints(field, minsol.A0.coeffs + minsol.B0.coeffs)[0]
        for scale in (1, -3, 10) if field.p is None else (1, 3):
            scaled = [scale * x if field.p is None else scale * x % field.p for x in ints]
            A, B = scaled[:a], scaled[a:]
            assert MinimalSolution.from_pair(data, A, B) == minsol
            assert from_pair_ref(data, Poly(A, field), Poly(B, field)) == minsol
