"""Shared exception types, and the check that integer settings share."""

import numbers


class UnsupportedSetError(ValueError):
    """Raised when an operation has no implementation for the given set kind."""


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive solve would exceed its configured budget."""


class InsufficientDataError(ValueError):
    """Raised when a statistical routine has too few usable points."""


class ConfigError(ValueError):
    """Raised on malformed config or results files; message carries field/line context."""


def check_integer(name, value, least):
    """Raise ValueError unless `value` is an integer >= `least`; a bool, a float or any
    other non-integer gets the JSON codec's wording, `expected an integer, got 2.5`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
