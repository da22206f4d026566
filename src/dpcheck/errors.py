"""Exception hierarchy shared across the toolkit."""


class DpcheckError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(DpcheckError, ValueError):
    """Operands have incompatible lengths or spaces."""


class DomainError(DpcheckError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class ParameterError(DpcheckError, ValueError):
    """Invalid mechanism or algorithm parameter (e.g. eps <= 0)."""


class ValidationError(DpcheckError, ValueError):
    """Object fails its structural invariants (e.g. unnormalized pmf)."""


class CapacityError(DpcheckError, RuntimeError):
    """Exhaustive enumeration would exceed the declared budget."""


class DegenerateScaleError(DpcheckError, ValueError):
    """Operation requires a positive scale; distribution is a point mass."""


class UnsupportedError(DpcheckError, RuntimeError):
    """Operation is not available for this object (e.g. no exact pmf)."""


class ConfigError(DpcheckError, ValueError):
    """Malformed run configuration."""
