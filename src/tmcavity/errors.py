"""Exception types shared across the package."""


class TmCavityError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(TmCavityError):
    """Signals living on different time grids were combined."""


class DegenerateSignalError(TmCavityError):
    """A signal with numerically zero norm cannot be normalized."""


class InstabilityError(TmCavityError):
    """Time integration let an amplitude outgrow the drive fed in, or overflow."""


class WindowClippingError(TmCavityError):
    """A pulse does not fit inside the grid window with enough margin."""


class UnsupportedOrderError(TmCavityError):
    """Requested mode order is outside the numerically stable range."""


class DegenerateBasisError(TmCavityError):
    """Orthogonalization collapsed a raw basis vector to near zero."""


class NonOrthonormalBasisError(TmCavityError):
    """A mode family fails its orthonormality contract."""


class InvalidRegularizationError(TmCavityError):
    """The design regularization parameter must be strictly positive."""


class UnsupportedInputError(TmCavityError):
    """Input signal has no usable support for the requested diagnostic."""


class UndefinedResidualError(TmCavityError):
    """Energy bookkeeping is undefined for zero input energy."""


class ConfigError(TmCavityError):
    """An experiment configuration failed to parse or validate."""
