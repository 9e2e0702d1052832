"""Exception types shared across the package."""


class ConfigError(ValueError):
    """A field or tag of a config object is out of range or unknown."""


class UsageError(ValueError):
    """A call, array or file breaks its contract."""


class StateError(RuntimeError):
    """A module is used before it is ready."""
