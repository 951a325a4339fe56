"""Shared exception types.

The CLI maps these onto exit codes (config errors -> 2, data errors -> 3),
so library code should raise the most specific one that applies.
"""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class DataError(ValueError):
    """Input data (CSV, PGM, arrays) violates a documented precondition."""
