"""Exception types shared across the package."""


class AoaLabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AoaLabError, ValueError):
    """An input is outside the supported domain (bad probability, bad flag, bad file)."""


class NumericalError(AoaLabError, ArithmeticError):
    """A route could not produce a finite, trustworthy number.

    The base of the solver, truncation and chain-size failures below, which
    keep their builtin bases too; nothing in the package raises it itself.
    The closed forms and the series are total on the domain `Params` admits.
    The CLI exits 3 on any error of this family.
    """


class ConvergenceError(NumericalError, RuntimeError):
    """An iterative solver exceeded its iteration cap without meeting tolerance."""


class TruncationError(NumericalError, RuntimeError):
    """Estimated stationary mass beyond the level cap is too large; raise the cap."""


class CapError(NumericalError, ValueError):
    """A truncated chain would have more than `chains.MAX_CHAIN_STATES` states."""
