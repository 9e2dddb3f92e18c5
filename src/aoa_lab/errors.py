"""Exception types shared across the package."""


class AoaLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AoaLabError, ValueError):
    """An input is outside the supported domain (bad probability, bad flag, bad file)."""


class NumericalError(AoaLabError, ArithmeticError):
    """A route could not produce a finite, trustworthy number.

    Raised itself when a closed form or the series loses all precision (a
    denominator underflows to zero, or a value overflows to inf or nan), and
    the base of the solver and truncation failures below, which keep their
    builtin bases too.  The CLI exits 3 on any error of this family.
    """


class ConvergenceError(NumericalError, RuntimeError):
    """An iterative solver exceeded its iteration cap without meeting tolerance."""


class TruncationError(NumericalError, RuntimeError):
    """Estimated stationary mass beyond the level cap is too large; raise the cap."""


class CapError(NumericalError, ValueError):
    """A truncated chain would be too large to build or bound.

    Raised when the requested tail tolerance needs a level cap above 10^6,
    when the decay rate max(1 - lambda1, 1 - lambda2) rounds to 1, and when
    a chain would have more than `chains.MAX_CHAIN_STATES` states.
    """
