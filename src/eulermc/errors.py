"""Exception hierarchy and the exit codes the CLI maps them to.

Exit codes: 0 success, 2 configuration error, 3 numeric/tolerance error,
4 statistical-power error.  cli.main reads only exit_code, so each code has
one class and no subclass below it.  ConfigError is also the builtin
ValueError, which library callers can catch for any refused argument.
"""


class EulermcError(Exception):
    exit_code = 1


class ConfigError(EulermcError, ValueError):
    """Bad configuration or out-of-contract arguments: unknown keys, missing
    presets, invalid values."""

    exit_code = 2


class NumericError(EulermcError):
    """Numeric failure: an overflow, a missed tolerance, mass lost off a grid."""

    exit_code = 3


class StatisticsError(EulermcError):
    """Not enough statistical power to report a result."""

    exit_code = 4


class DivergenceWarning(UserWarning):
    """Series terms stopped decaying; grid or truncation is suspect."""
