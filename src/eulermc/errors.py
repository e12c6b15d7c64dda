"""Exception hierarchy and the exit codes the CLI maps them to.

Exit codes: 0 success, 2 configuration error, 3 numeric/tolerance error,
4 statistical-power error.
"""


class EulermcError(Exception):
    exit_code = 1


class ConfigError(EulermcError):
    """Bad configuration: unknown keys, missing presets, invalid values."""

    exit_code = 2


class InvalidModelError(ConfigError):
    """Model coefficients are unusable: a noise scale sigma0 that is zero or
    not finite."""


class ArgumentError(ConfigError, ValueError):
    """An operation was called with out-of-contract arguments."""


class NumericError(EulermcError):
    """Numeric failure during computation."""

    exit_code = 3


class TruncationError(NumericError):
    """Too much probability mass falls outside a truncated grid."""


class IntegrationError(NumericError):
    """A geodesic missed its endpoint tolerance."""


class StatisticsError(EulermcError):
    """Not enough statistical power to report a result."""

    exit_code = 4


class DivergenceWarning(UserWarning):
    """Series terms stopped decaying; grid or truncation is suspect."""
