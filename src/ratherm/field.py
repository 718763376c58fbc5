"""Exact scalar arithmetic over Q and over prime fields GF(p).

A Scalar is either a ``fractions.Fraction`` (always reduced, positive
denominator) or a :class:`PrimeFieldElement`.  Both are immutable and
compare structurally.  A ``PrimeFieldElement`` has ``+``, ``-``, ``*``,
``/``, ``**`` and unary ``-``; a plain ``int`` operand is lifted into the
field only where a slot takes one (right of ``+``, ``-``, ``*`` and ``/``,
and left of ``*``), and rationals and prime-field elements never mix
(:class:`~ratherm.errors.MixedFields`).

Zero tests are done by truthiness (``if x:``), which both scalar kinds
support; ``PrimeFieldElement`` deliberately does not compare equal to raw
ints because residue classes contain many of them.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import (
    CharacteristicTooSmall,
    DivisionByZero,
    InvalidInput,
    MixedFields,
)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The first 13 prime bases decide primality below 3317044064679887385961981.
_MR_LIMIT = 33 * 10**23
# Most decimal digits of a parsed integer, numerator or denominator.
MAX_DIGITS = 4300
# Fraction's literals: "a/b", or "a.b" with exponent e, ab * 10^e over 10^len(b).
_LITERAL = re.compile(r"\s*[-+]?([\d_]*)(?:/([\d_]+)|(?:\.([\d_]*))?(?:e([-+]?[\d_]+))?)\s*", re.I)


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 3.3e24, larger n rejected."""
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise InvalidInput(f"{n} is too large to certify as prime (limit 3.3e24)")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_digits(text: str) -> None:
    """Reject an integer or rational literal whose numerator or denominator
    has more than MAX_DIGITS digits before reducing.  Counted on the text,
    so a huge exponent is never raised to its power of ten."""
    m = _LITERAL.fullmatch(text)
    a, den, b, e = ((g or "").replace("_", "") for g in m.groups()) if m else ("",) * 4
    sign, e = (-1 if e.startswith("-") else 1), e.lstrip("+-0")
    shift = sign * (int(e or 0) if len(e) < 10 else 10**9)  # 10**9: past any cap
    if max(len(a) + len(b) + max(shift, 0), len(den), len(b) + max(-shift, 0) + 1) > MAX_DIGITS:
        raise InvalidInput(f"a literal has more than MAX_DIGITS = {MAX_DIGITS} digits")


def parse_json_int(text: str) -> int:
    """A JSON integer literal; one longer than MAX_DIGITS has its digits counted first."""
    if len(text) > MAX_DIGITS:
        _check_digits(text)
    return int(text)


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def sealed(cls):
    """Setting or deleting any attribute of this frozen slotted dataclass raises
    FrozenInstanceError (the generated methods raise TypeError on non-fields)."""
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


@sealed
@dataclass(frozen=True, slots=True)
class PrimeFieldElement:
    """Residue modulo a prime.  Immutable; mixed moduli raise MixedFields."""

    residue: int
    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise InvalidInput(f"modulus {self.p} is not prime")
        object.__setattr__(self, "residue", self.residue % self.p)

    def _lift(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise MixedFields(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return _mod(other, self.p)
        if isinstance(other, Fraction):
            raise MixedFields(f"GF({self.p}) vs rational")
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _mod(self.residue + o.residue, self.p)

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _mod(self.residue - o.residue, self.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return _mod(self.residue * o.residue, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        if not o:
            raise DivisionByZero(f"division by zero in GF({self.p})")
        return self * o.inverse()

    def __neg__(self):
        return _mod(-self.residue, self.p)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return _mod(pow(self.residue, e, self.p), self.p)

    def inverse(self) -> "PrimeFieldElement":
        if not self.residue:
            raise DivisionByZero(f"0 has no inverse in GF({self.p})")
        return _mod(pow(self.residue, -1, self.p), self.p)

    def __bool__(self):
        return self.residue != 0

    def __str__(self):
        return f"{self.residue} mod {self.p}"


def _mod(r: int, p: int) -> PrimeFieldElement:
    """r mod p for a p already certified prime (a FieldConfig's, or an
    operand's): built without the primality test and the dataclass init."""
    x = object.__new__(PrimeFieldElement)
    object.__setattr__(x, "residue", r % p)
    object.__setattr__(x, "p", p)
    return x


Scalar = Union[Fraction, PrimeFieldElement]


@sealed
@dataclass(frozen=True, slots=True)
class FieldConfig:
    """The active field: Q when ``p`` is None, otherwise GF(p)."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise InvalidInput(f"field modulus {self.p} is not prime")

    @classmethod
    def rationals(cls) -> "FieldConfig":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "FieldConfig":
        return cls(p)

    @property
    def zero(self) -> Scalar:
        return self.from_int(0)

    @property
    def one(self) -> Scalar:
        return self.from_int(1)

    def from_int(self, n: int) -> Scalar:
        if self.p is None:
            return Fraction(n)
        return _mod(n, self.p)

    def contains(self, x: Scalar) -> bool:
        if self.p is None:
            return isinstance(x, Fraction)
        return isinstance(x, PrimeFieldElement) and x.p == self.p

    def coerce(self, x) -> Scalar:
        """Lift an int / Fraction / same-field Scalar into this field."""
        if isinstance(x, int):
            return self.from_int(x)
        if self.contains(x):
            return x
        if self.p is None and isinstance(x, Fraction):
            return x
        if self.p is not None and isinstance(x, Fraction):
            raise MixedFields(f"rational {x} used in GF({self.p})")
        raise MixedFields(f"{x!r} does not belong to {self}")

    def require_characteristic(self, n_vec) -> None:
        """Characteristic 0 or p >= max multiplicity; else error."""
        if self.p is not None and self.p < max(n_vec):
            raise CharacteristicTooSmall(
                f"GF({self.p}) too small for multiplicities {tuple(n_vec)}"
            )

    # JSON forms: rationals "p/q" or "p"; prime elements {"residue": r, "p": p}.
    def format_scalar(self, x: Scalar):
        if self.p is None:
            return str(x)
        return {"residue": x.residue, "p": x.p}

    def parse_scalar(self, obj) -> Scalar:
        if isinstance(obj, bool):
            raise InvalidInput(f"bad {self} value {obj!r}")
        if self.p is None:
            if isinstance(obj, int):
                return Fraction(obj)
            if isinstance(obj, str):
                # without an exponent no count exceeds the length of the text
                if len(obj) > MAX_DIGITS or "e" in obj or "E" in obj:
                    _check_digits(obj)
                try:
                    return Fraction(obj)
                except (ValueError, ZeroDivisionError) as exc:
                    raise InvalidInput(f"bad rational literal {obj!r}") from exc
            raise InvalidInput(f"bad rational value {obj!r}")
        if isinstance(obj, int):
            return _mod(obj, self.p)
        if isinstance(obj, dict) and set(obj) == {"residue", "p"}:
            if type(obj["residue"]) is not int:
                raise InvalidInput(f"bad GF({self.p}) residue {obj['residue']!r}")
            if obj["p"] != self.p:
                raise InvalidInput(f"residue mod {obj['p']} in a GF({self.p}) document")
            return _mod(obj["residue"], self.p)
        raise InvalidInput(f"bad GF({self.p}) value {obj!r}")

    def to_json(self):
        return "Q" if self.p is None else {"p": self.p}

    @classmethod
    def from_json(cls, obj) -> "FieldConfig":
        if obj == "Q":
            return cls.rationals()
        if isinstance(obj, dict) and set(obj) == {"p"} and isinstance(obj["p"], int):
            return cls.prime(obj["p"])
        raise InvalidInput(f"bad field descriptor {obj!r}")

    def __str__(self):
        return "Q" if self.p is None else f"GF({self.p})"


RATIONALS = FieldConfig.rationals()
