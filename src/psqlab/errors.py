"""Exception types shared across the package.

Invalid input is a ValueError (exit 2 on the command line); these name the
outcomes a caller tells apart.
"""


class TooLarge(ValueError):
    """Input past a size budget (sieve limit, W, grid, convolution, subset
    enumeration), raised before the work it bounds is allocated."""


class Infeasible(Exception):
    """No residue combination meets the density threshold (expected at small scale)."""


class NotFound(Exception):
    """No index combination exists at this scale (expected for small targets)."""


class VerificationError(Exception):
    """Two independent computation routes disagreed beyond tolerance, or a
    computation's own self-check failed."""
