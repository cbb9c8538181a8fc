"""Exception types shared across the package, and ``_number``, the one number check."""

import math
import numbers

import numpy as np


class WaveMlpError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(WaveMlpError, ValueError):
    """Shapes, axes, or index ranges violate an operation's contract."""


class DomainError(WaveMlpError, ValueError):
    """A value lies outside an operation's mathematical domain."""


class UndefinedPhaseError(DomainError):
    """Phase requested for a superposition whose amplitude is identically zero."""


class ConfigurationError(WaveMlpError, ValueError):
    """A setting is invalid: a structure (window, stage table, mode), a name, or a number
    that is not an int or real (a bool is neither), overflows a float or lies outside its range."""


class ContractError(WaveMlpError, ValueError):
    """A caller-supplied callable or argument breaks an API contract."""


class NumericError(WaveMlpError, ArithmeticError):
    """Non-finite values appeared where finite ones are required."""


class UnsupportedModeError(WaveMlpError, ValueError):
    """The requested operation does not apply to the configured mode."""


class OutputError(WaveMlpError):
    """An output directory or file could not be created or written."""


def _shown(value) -> str:
    try:  # repr raises for an int past Python's digit limit for str(), or a list holding one
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _number(name: str, value, lo, hi=math.inf, n: int = 0, real: bool = False, error=ConfigurationError):
    """``value`` (a list or tuple of ``n`` of them when n > 0) if each is an int, or a real
    number when ``real``, whose float() lies in [lo, hi), else ``error`` naming the setting.
    A bool is neither; nan, infinities and ints too large for a float lie outside, and
    ``lo=math.ulp(0.0)``, the least positive float, asks for > 0. Returns a tuple when
    n > 0, each int as a Python int and each real as a Python float."""
    kind, word = (numbers.Real, "real number") if real else ((int, np.integer), "int")
    values = value if n else [value]
    ok = isinstance(values, (list, tuple)) and len(values) == max(n, 1)
    if not (ok and all(isinstance(v, kind) and not isinstance(v, bool) for v in values)):
        raise error(f"{name} must be {n or 'one'} {word}{'s' * bool(n)}, got {_shown(value)}")
    try:
        inside = all(lo <= float(v) < hi for v in values)
    except OverflowError:
        raise error(f"{name} must fit in a float") from None
    if not inside:
        raise error(f"{name} must be in [{lo}, {hi}), got {_shown(value)}")
    values = tuple(map(float if real else int, values))
    return values if n else values[0]
