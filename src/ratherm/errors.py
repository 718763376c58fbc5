"""Exception hierarchy shared by every module in the package."""


class RathermError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(RathermError, ValueError):
    """Malformed document, argument, or value outside its contract."""


class DivisionByZero(RathermError, ZeroDivisionError):
    """Division by a zero scalar or zero polynomial."""


class MixedFields(RathermError, TypeError):
    """Arithmetic between scalars of different fields or moduli."""


class CharacteristicTooSmall(RathermError, ValueError):
    """Prime-field characteristic below the largest multiplicity."""


class DuplicateNodes(RathermError, ValueError):
    """Interpolation nodes are not pairwise distinct."""


class BadIndex(RathermError, IndexError):
    """Node or column index outside its admissible range."""


class ShapeMismatch(RathermError, ValueError):
    """Matrix or data dimensions do not fit the requested operation."""


class BothZero(RathermError, ValueError):
    """gcd of two zero polynomials is undefined."""


class ZeroInput(RathermError, ValueError):
    """Zero polynomial passed where a nonzero one is required."""


class TooLarge(RathermError, ValueError):
    """Input exceeds a size cap (MAX_N, MAX_SAMPLES)."""


class InfeasibleRequest(RathermError, ValueError):
    """Requested sample lies in an empty stratum."""


class InternalInconsistency(RathermError, RuntimeError):
    """A state the mathematics rules out; always indicates a bug."""
