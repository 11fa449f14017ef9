"""Error taxonomy and the argument checks.

DomainError covers violated input contracts (bad n, slope outside the
certified interval, malformed rationals); the CLI maps it to exit code 1.
NumericsError covers runtime numerical failures (lost convergence, residuals
above tolerance); the CLI maps it to exit code 2.  The checks every module
applies to its arguments live here too: is_int and check_n for integers,
as_float and check_positive for floats, _too_large, the one refusal of an
integer beyond double range, and _int_text, which names an integer argument
of any size in a refusal (_str_digit_limit reads the digit limit past which
str refuses one).
"""

import sys
from math import inf


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class SlopeOutOfRange(DomainError):
    """Requested slope p/q is not strictly inside (0, 4)."""


class NumericsError(RuntimeError):
    """A numerical check failed at the requested tolerance."""


class NonConvergence(NumericsError):
    """Iteration cap hit before the tolerance was reached."""


class RelatorNotCentral(NumericsError):
    """Lifted relator misses (0, 0) by more than cover.DEFAULT_LIFT_TOL."""


class LongitudeOmegaNonzero(NumericsError):
    """Lifted longitude left the expected sheet of the cover."""


class CertificateFailed(NumericsError):
    """Final cover element of x^p L^q is not the identity at tolerance."""


def is_int(value) -> bool:
    """True for an int that is not a bool: bool subclasses int, but True and
    False are no integer parameters."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_n(n: int) -> None:
    """DomainError unless n is an integer twist parameter other than 0 and -1.

    n = 0 and n = -1 give the unknot and the trefoil, which are outside this
    machinery.
    """
    if not is_int(n):
        raise DomainError(f"n must be an integer, got {n!r}")
    if n in (0, -1):
        raise DomainError(f"n must not be 0 or -1, got {n}")


def _too_large(name: str, k: int) -> NumericsError:
    """The one refusal of an integer argument beyond double range; it gives
    |k|'s bit length, since str(k) itself raises above 4300 digits."""
    bits = int(k).bit_length()
    return NumericsError(f"{name} is too large for double precision: |{name}| has {bits} bits")


# str's digit limit for integers, read at each call (0: no limit, as on a
# Python from before the limit)
_str_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _int_text(k: int) -> str:
    """str(k) for a refusal's message; where str refuses k, beyond Python's
    limit of 4300 digits for integer string conversion, k's sign and bit
    length instead, as _too_large gives them."""
    try:
        return str(k)
    except ValueError:
        return f"{'-' if k < 0 else ''}<integer of {k.bit_length()} bits>"


def as_float(name: str, value: float) -> float:
    """float(value), refusing an integer beyond double range with _too_large
    and a value that float rejects, such as None or 1j, with DomainError."""
    try:
        return float(value)
    except OverflowError:
        raise _too_large(name, value) from None
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None


def check_positive(name: str, value: float) -> float:
    """as_float(name, value); DomainError unless it is finite and positive."""
    value = as_float(name, value)
    if not 0.0 < value < inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")
    return value
