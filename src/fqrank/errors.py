"""Exception types shared across the package, and the one integer check
that raises them."""

import numbers


class FqRankError(Exception):
    """Base class for all fqrank errors."""


class NotPrimePower(FqRankError):
    """Field size q is not a prime power."""


class TooLarge(FqRankError):
    """A field size or matrix size exceeds its cap."""


class DimensionMismatch(FqRankError):
    """Vector/matrix dimensions are incompatible."""


class EvenCharacteristic(FqRankError):
    """Alternating-model operation requested over a field of even q."""


class EmptySupport(FqRankError):
    """Entry distribution has no support."""


class InvalidSpec(FqRankError):
    """Model specification is internally inconsistent."""


class InvalidArgument(FqRankError, ValueError):
    """A parameter or input value is out of range or malformed."""


class CodimensionTooLarge(FqRankError):
    """Subspace codimension exceeds the exact state-space guard."""


class TooLargeToEnumerate(FqRankError):
    """Requested exhaustive enumeration exceeds the size guard."""


def need_int(name: str, value, lo: int | None = None, hi: int | None = None,
             error: type[FqRankError] = InvalidArgument) -> int:
    """value as a Python int, refusing a bool, a non-integer and a value
    outside [lo, hi] (hi is given only with lo) with error("name must be an
    integer >= lo, not value").  A numpy integer is a numbers.Integral: it
    comes back as an int, so it never reaches exact arithmetic, where it
    would wrap around."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and (lo is None or lo <= value) and (hi is None or value <= hi)):
        return int(value)
    bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise error(f"{name} must be an integer{bound}, not {value!r}")
