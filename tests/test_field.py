"""Field configuration, prime-field arithmetic, primality and scalar parsing."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ratherm import (
    CharacteristicTooSmall,
    DivisionByZero,
    FieldConfig,
    InvalidInput,
    MixedFields,
    PrimeFieldElement,
    infer_field,
)
from ratherm.field import is_prime

RAT = FieldConfig.rationals()
GF5 = FieldConfig.prime(5)
GF13 = FieldConfig.prime(13)


def test_rationals_config():
    assert RAT.p is None
    assert RAT.zero == Fraction(0)
    assert RAT.one == Fraction(1)
    assert RAT.coerce(3) == Fraction(3)
    assert RAT.parse_scalar("2/7") == Fraction(2, 7)
    assert RAT.coerce(Fraction(-1, 4)) == Fraction(-1, 4)
    with pytest.raises(MixedFields):
        RAT.coerce("2/7")
    assert RAT.to_json() == "Q"
    assert FieldConfig.from_json("Q") == RAT


def test_prime_config_round_trip():
    assert GF13.p is not None
    assert GF13.to_json() == {"p": 13}
    assert FieldConfig.from_json({"p": 13}) == GF13
    x = GF13.parse_scalar({"residue": 7, "p": 13})
    assert x == PrimeFieldElement(7, 13)
    assert GF13.format_scalar(x) == {"residue": 7, "p": 13}


def test_nonprime_modulus_rejected():
    for p in (0, 1, 4, 15, -7):
        with pytest.raises(InvalidInput):
            FieldConfig.prime(p)


def test_parse_format_rationals():
    for s in ("3/4", "-2", "0", "10/3"):
        assert RAT.format_scalar(RAT.parse_scalar(s)) == s
    with pytest.raises(InvalidInput):
        RAT.parse_scalar("3/0")
    with pytest.raises(InvalidInput):
        RAT.parse_scalar("x")


def test_prime_field_arithmetic():
    a = PrimeFieldElement(3, 5)
    b = PrimeFieldElement(4, 5)
    assert a + b == PrimeFieldElement(2, 5)
    assert a - b == PrimeFieldElement(4, 5)
    assert a * b == PrimeFieldElement(2, 5)
    assert a / b == a * b.inverse()
    assert (a / b) * b == a
    assert -a == PrimeFieldElement(2, 5)
    assert a**3 == PrimeFieldElement(2, 5)
    assert a**0 == PrimeFieldElement(1, 5)
    assert bool(a)
    assert not PrimeFieldElement(0, 5)
    assert 1 + a == PrimeFieldElement(4, 5)
    assert 1 - a == PrimeFieldElement(3, 5)
    assert 2 * a == PrimeFieldElement(1, 5)


def test_prime_field_division_by_zero():
    with pytest.raises(DivisionByZero):
        PrimeFieldElement(1, 5) / PrimeFieldElement(0, 5)
    with pytest.raises(DivisionByZero):
        PrimeFieldElement(0, 5).inverse()


def test_mixed_moduli_rejected():
    with pytest.raises(MixedFields):
        PrimeFieldElement(1, 5) + PrimeFieldElement(1, 7)
    with pytest.raises(MixedFields):
        PrimeFieldElement(1, 5) * PrimeFieldElement(1, 7)


def test_require_characteristic():
    RAT.require_characteristic((9, 4))
    GF5.require_characteristic((5, 2))
    with pytest.raises(CharacteristicTooSmall):
        GF5.require_characteristic((6,))
    with pytest.raises(CharacteristicTooSmall):
        FieldConfig.prime(3).require_characteristic((2, 4))


def test_infer_field():
    assert infer_field([Fraction(1), Fraction(2, 3)]) == RAT
    assert infer_field([PrimeFieldElement(2, 13), Fraction(1)]) == GF13
    assert infer_field([]) == RAT
    # first non-int wins; clashes surface later, at coercion
    assert infer_field([PrimeFieldElement(1, 5), PrimeFieldElement(1, 7)]) == GF5
    with pytest.raises(MixedFields):
        GF5.coerce(PrimeFieldElement(1, 7))


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30))
def test_prime_field_ring_axioms(x, y, z):
    a, b, c = (PrimeFieldElement(v % 13, 13) for v in (x, y, z))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if b:
        assert (a / b) * b == a


@given(st.integers(-30, 30))
def test_prime_field_fermat_inverse(x):
    a = PrimeFieldElement(x % 13, 13)
    if a:
        assert a * a ** (13 - 2) == PrimeFieldElement(1, 13)


def test_scalar_helpers_mixed_field_guard():
    q = Fraction(1, 2)
    g = PrimeFieldElement(1, 5)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(MixedFields):
            op(q, g)
        with pytest.raises(MixedFields):
            op(g, q)
    with pytest.raises(DivisionByZero):
        g / PrimeFieldElement(0, 5)


def test_is_prime_strong_pseudoprime_to_first_twelve_bases():
    # psi_12 = 399165290221 * 798330580441 fools Miller-Rabin on bases 2..37
    psi12 = 318665857834031151167461
    assert not is_prime(psi12)
    with pytest.raises(InvalidInput):
        FieldConfig.prime(psi12)
    assert is_prime(1000003)


def test_is_prime_rejects_beyond_certified_range():
    for n in (33 * 10**23, 2**89 - 1):
        with pytest.raises(InvalidInput):
            is_prime(n)
        with pytest.raises(InvalidInput):
            FieldConfig.prime(n)
    assert is_prime(2**61 - 1)


def test_parse_scalar_rejects_bools():
    for field in (RAT, GF13):
        for bad in (True, False):
            with pytest.raises(InvalidInput):
                field.parse_scalar(bad)
    with pytest.raises(InvalidInput):
        GF13.parse_scalar({"residue": "x", "p": 13})
    with pytest.raises(InvalidInput):
        GF13.parse_scalar({"residue": True, "p": 13})
