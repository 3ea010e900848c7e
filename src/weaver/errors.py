"""Exception types shared across the package.  A refusal is a RangeError (an
argument that is not admitted, or a result that binary64 cannot hold) or a
CapacityError (a cap); WeaverError itself reports a failed render child."""


class WeaverError(Exception):
    """Base class for all errors raised by this package."""


class RangeError(WeaverError, ValueError):
    """An argument lies outside its documented range, or a result outside binary64."""


class CapacityError(WeaverError, ValueError):
    """A request exceeds a materialization or draw cap."""
