"""Exception types shared across the package."""


class HardyOpsError(Exception):
    """Base class for all errors raised by hardyops."""


class GridMismatchError(HardyOpsError):
    """Two boundary functions live on different circle grids."""


class NotAnalyticError(HardyOpsError):
    """An operation requiring an analytic input received one with
    non-negligible negative Fourier mass."""


class NotInModelSpaceError(HardyOpsError):
    """An input claimed to lie in the model space fails the projection
    fixed-point check."""


class UnitDiscError(HardyOpsError):
    """A point or zero violates an open-unit-disc constraint (on or outside
    the circle, or too close to it for stable computation)."""


class ExponentError(HardyOpsError):
    """Integrability exponent outside the open interval (1, infinity)."""


class CommonZeroError(HardyOpsError):
    """The symbol and the inner function share a zero: the Bezout identity
    a*u + I*v = 1 has no solution."""


class IllConditionedError(HardyOpsError):
    """A numerical residual exceeded its acceptance threshold."""


class NonFiniteError(HardyOpsError):
    """A computation overflowed: a number it produced or must return is NaN
    or infinite."""


class CommutationError(HardyOpsError):
    """A matrix expected to commute with the compressed shift does not."""


class TrivialInnerError(HardyOpsError):
    """The polynomial is outer (no zeros in the disc), so there is no
    co-analytic kernel to certify."""


class ConfigError(HardyOpsError):
    """Invalid run configuration or family descriptor."""
