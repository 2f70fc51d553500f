"""Small validation helpers used by configuration dataclasses.

Each helper raises :class:`~repro.utils.errors.ConfigurationError` with a
message that names the offending field, which keeps the ``__post_init__``
methods of the configuration dataclasses short and uniform.
"""

from __future__ import annotations

from typing import Iterable

from repro.utils.errors import ConfigurationError


def require_positive(name: str, value: float) -> float:
    """Ensure ``value`` is strictly positive, returning it for chaining."""
    if value is None or not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(name: str, value: float) -> float:
    """Ensure ``value`` is >= 0, returning it for chaining."""
    if value is None or value < 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return value


def require_positive_int(name: str, value: int) -> int:
    """Ensure ``value`` is a strictly positive integer."""
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ConfigurationError(f"{name} must be a positive int, got {value!r}")
    return value


def require_int_at_least(name: str, value: int, minimum: int) -> int:
    """Ensure ``value`` is an integer no smaller than ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigurationError(f"{name} must be an int >= {minimum}, got {value!r}")
    return value


def require_fraction(name: str, value: float) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1]."""
    if value is None or not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def require_in(name: str, value: object, allowed: Iterable[object]) -> object:
    """Ensure ``value`` is one of ``allowed``."""
    allowed = tuple(allowed)
    if value not in allowed:
        raise ConfigurationError(f"{name} must be one of {allowed}, got {value!r}")
    return value


def require_divides(name: str, divisor: int, dividend: int) -> None:
    """Ensure ``divisor`` divides ``dividend`` exactly."""
    if divisor <= 0 or dividend % divisor != 0:
        raise ConfigurationError(
            f"{name}: expected {divisor} to divide {dividend} exactly"
        )
