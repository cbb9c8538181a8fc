"""Exception types shared across the package."""


class WaveMlpError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(WaveMlpError, ValueError):
    """Shapes, axes, or index ranges violate an operation's contract."""


class DomainError(WaveMlpError, ValueError):
    """A value lies outside an operation's mathematical domain."""


class UndefinedPhaseError(DomainError):
    """Phase requested for a superposition whose amplitude is identically zero."""


class ConfigurationError(WaveMlpError, ValueError):
    """A structural configuration value (window, stage table, mode) is invalid."""


class ContractError(WaveMlpError, ValueError):
    """A caller-supplied callable or argument breaks an API contract."""


class NumericError(WaveMlpError, ArithmeticError):
    """Non-finite values appeared where finite ones are required."""


class UnsupportedModeError(WaveMlpError, ValueError):
    """The requested operation does not apply to the configured mode."""


class OutputError(WaveMlpError):
    """An output directory or file could not be created or written."""
