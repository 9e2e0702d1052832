"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(ValueError):
    """A numeric parameter is outside its valid range."""


class ConfigError(ValueError):
    """A configuration value or tag is not recognized or violates a constraint."""


class StateError(RuntimeError):
    """An operation was invoked on a module whose internal state is not ready."""


class UsageError(ValueError):
    """An operation was called in a way its contract forbids."""


class ContractError(KeyError):
    """A required input (for example a named similarity matrix) is missing."""

    __str__ = Exception.__str__  # the plain message, not KeyError's repr


class AccountingError(RuntimeError):
    """The energy ledger encountered a layer it cannot account for."""
