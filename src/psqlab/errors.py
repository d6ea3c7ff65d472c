"""Exception types shared across the package."""


class PsqLabError(Exception):
    """Base class for all errors raised by psqlab."""


class NonInvertible(PsqLabError, ValueError):
    """Modular inverse requested for a non-unit."""


class NotCoprime(PsqLabError, ValueError):
    """Argument pair required to be coprime is not."""


class TableTooSmall(PsqLabError, ValueError):
    """Prime table does not cover the values a computation needs."""


class EmptyReference(PsqLabError, ValueError):
    """Density requested against an empty reference prime set."""


class TooLarge(PsqLabError, ValueError):
    """Input past a size budget (sieve limit, W, grid, convolution, subset
    enumeration), raised before the work it bounds is allocated."""


class QTooLarge(PsqLabError, ValueError):
    """Arc parameter violates N > 2*Q**2."""


class Infeasible(PsqLabError):
    """No residue combination meets the density threshold (expected at small scale)."""


class NotFound(PsqLabError):
    """No index combination exists at this scale (expected for small targets)."""


class VerificationError(PsqLabError):
    """Two independent computation routes disagreed beyond tolerance."""
