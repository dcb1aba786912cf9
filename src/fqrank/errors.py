"""Exception types shared across the package."""


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
