"""Field configuration, prime-field arithmetic, primality and scalar parsing."""

import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratherm import (
    CharacteristicTooSmall,
    DivisionByZero,
    FieldConfig,
    InvalidInput,
    MixedFields,
    PrimeFieldElement,
)
from ratherm.field import MAX_DIGITS, _check_digits, is_prime, parse_json_int

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
    assert a + 1 == PrimeFieldElement(4, 5)
    assert a - 1 == PrimeFieldElement(2, 5)
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
    with pytest.raises(MixedFields):
        GF5.coerce(PrimeFieldElement(1, 7))


def test_require_characteristic():
    RAT.require_characteristic((9, 4))
    GF5.require_characteristic((5, 2))
    with pytest.raises(CharacteristicTooSmall):
        GF5.require_characteristic((6,))
    with pytest.raises(CharacteristicTooSmall):
        FieldConfig.prime(3).require_characteristic((2, 4))


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
            op(g, q)
    with pytest.raises(MixedFields):
        q * g
    # no reflected +, - or / slot: Python itself refuses the pair
    for op in (operator.add, operator.sub, operator.truediv):
        with pytest.raises(TypeError):
            op(q, g)
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


# ------------------------------------------------- fast paths of the scalars


def _verdict(parse, text):
    try:
        return parse(text)
    except InvalidInput:
        return InvalidInput


def _parse_scalar_ref(text):
    """Every literal's digits counted, then ``Fraction``."""
    _check_digits(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(text) from exc


def _int_ref(text):
    _check_digits(text)
    return int(text)


@st.composite
def literals(draw):
    """Literal texts about MAX_DIGITS +- 2 characters long, or short: signs,
    underscores, surrounding whitespace, decimals, exponents and slashes,
    some malformed."""
    size = draw(st.integers(0, 6) | st.integers(MAX_DIGITS - 5, MAX_DIGITS + 2))

    def run(length):
        unit = draw(st.sampled_from(["1", "0", "9", "12", "1_2", "_", "00", "7e"]))
        return (unit * (length // len(unit) + 1))[:length]

    cut = draw(st.integers(0, size))
    form = draw(st.sampled_from(["", ".", "/", "e", "E", "e-", "E+", ".e", "+", " "]))
    if form == ".e":
        body = run(cut // 2) + "." + run(cut - cut // 2) + "e" + draw(st.sampled_from(["5", "-5", "4300"]))
    else:
        body = run(cut) + form + run(size - cut)
    pad = draw(st.sampled_from(["", " ", "\t", " \n"]))
    return pad + draw(st.sampled_from(["", "-", "+", "--"])) + body + pad


@settings(max_examples=400, deadline=None)
@given(literals() | st.text("0123456789_+-. eE/", max_size=12))
@example("1" * MAX_DIGITS)
@example("1" * (MAX_DIGITS + 1))
@example("1." + "5" * (MAX_DIGITS - 2))
@example("1." + "5" * (MAX_DIGITS - 1))
@example("1/" + "3" * (MAX_DIGITS - 2))
@example(f"1e{MAX_DIGITS - 1}")
@example(f"1E{MAX_DIGITS}")
def test_literal_fast_path_accepts_what_the_digit_count_accepts(text):
    """``parse_scalar`` counts digits only on long or exponent literals;
    it accepts and rejects exactly what the full count plus ``Fraction``
    do, with the same value."""
    assert _verdict(RAT.parse_scalar, text) == _verdict(_parse_scalar_ref, text)


@given(st.integers(MAX_DIGITS - 3, MAX_DIGITS + 2), st.sampled_from(["", "-"]), st.sampled_from("1937"))
def test_json_int_fast_path_matches_the_digit_count(size, sign, digit):
    text = sign + digit * size
    assert _verdict(parse_json_int, text) == _verdict(_int_ref, text)


@given(st.sampled_from([2, 5, 7, 13, 1000003]), st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_residues_from_arithmetic_equal_constructed_ones(p, x, y):
    """Arithmetic, ``from_int`` and parsing build residues unchecked; each
    equals ``PrimeFieldElement(r, p)`` in residue, p, == and hash."""
    field, a, b = FieldConfig.prime(p), PrimeFieldElement(x, p), PrimeFieldElement(y, p)
    built = [a + b, a - b, a * b, -a, a**3, a + 3, a - 3, 3 * a, a * 3, field.from_int(x),
             field.parse_scalar(x), field.parse_scalar({"residue": x, "p": p})]
    if b:
        built += [a / b, b.inverse(), a**-2 if a else a]
    for got in built:
        want = PrimeFieldElement(got.residue, p)
        assert (got.residue, got.p) == (want.residue, want.p) and 0 <= got.residue < p
        assert got == want and hash(got) == hash(want)
    assert a + b == PrimeFieldElement(x + y, p) and a * b == PrimeFieldElement(x * y, p)


def test_the_public_constructors_still_certify_the_modulus():
    with pytest.raises(InvalidInput):
        PrimeFieldElement(3, 8)
    for m in (1, 4, -7, 8):
        with pytest.raises(InvalidInput):
            FieldConfig.prime(m)
