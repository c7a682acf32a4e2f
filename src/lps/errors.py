"""Exception types shared across the library."""


class LpsError(Exception):
    """Base class for all library errors."""


class InvalidInputError(LpsError, ValueError):
    """Input violates a documented precondition (shape, finiteness, parameter range)."""


class UnsupportedExponentError(InvalidInputError):
    """The exponent p lies outside the range an operation is defined for."""


class UndefinedDerivativeError(InvalidInputError):
    """Derivative requested at a point where the map is not differentiable."""


class SingularPointError(InvalidInputError):
    """Operation undefined at this point (e.g. a negative power of 0)."""


class RankDeficientError(LpsError):
    """Matrix does not have the full (row) rank the operation requires."""


class CapacityError(LpsError):
    """Exhaustive computation would exceed the configured subset cap."""
