"""Exception types shared across the package."""


class PsqLabError(Exception):
    """Base class for all errors raised by psqlab."""


class NonInvertible(PsqLabError, ValueError):
    """Modular inverse requested for a non-unit."""


class NonCoprimeModuli(PsqLabError, ValueError):
    """CRT combination attempted with non-coprime moduli."""


class NotSquarefree(PsqLabError, ValueError):
    """Coordinate decomposition requires a squarefree modulus."""


class NotCoprime(PsqLabError, ValueError):
    """Argument pair required to be coprime is not."""


class LimitTooLarge(PsqLabError, ValueError):
    """Sieve limit above the configured memory bound."""


class WTooLarge(PsqLabError, ValueError):
    """W-trick modulus outside the supported range."""


class TableTooSmall(PsqLabError, ValueError):
    """Prime table does not cover the values a computation needs."""


class EmptyReference(PsqLabError, ValueError):
    """Density requested against an empty reference prime set."""


class TooLarge(PsqLabError, ValueError):
    """Requested grid or convolution exceeds the configured size budget."""


class QTooLarge(PsqLabError, ValueError):
    """Arc parameter violates N > 2*Q**2."""


class ZTooLarge(PsqLabError, ValueError):
    """Exhaustive subset enumeration infeasible for this residue set."""


class Infeasible(PsqLabError):
    """No residue combination meets the density threshold (expected at small scale)."""


class NotFound(PsqLabError):
    """No index combination exists at this scale (expected for small targets)."""


class VerificationError(PsqLabError):
    """Two independent computation routes disagreed beyond tolerance."""
