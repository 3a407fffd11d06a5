"""Exception types shared across the package, and the rules that check values from outside it."""

from __future__ import annotations

import math

import numpy as np


class ShapeError(ValueError):
    """Operands have incompatible shapes."""


class DomainError(ValueError):
    """A value lies outside the mathematical domain of an operation."""


class FormatError(ValueError):
    """A file does not match its expected binary or text layout."""


class LengthError(FormatError):
    """A file payload is shorter or longer than its header promises."""


class ConsistencyError(ValueError):
    """Two artifacts that must agree (counts, shapes, digests) do not."""


class StalenessError(ConsistencyError):
    """A cached artifact no longer matches the checkpoint that produced it."""


class TrainingError(RuntimeError):
    """Training produced a non-finite loss or gradient.

    Carries enough context (epoch, batch, parameter path) to locate the
    failing step.
    """

    def __init__(self, message, epoch=None, batch=None, param=None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
        self.param = param


class UsageError(ValueError):
    """Bad command-line arguments or config values, or missing input files."""


# -- one rule per kind of outside value ------------------------------------------
# Each field of a config, a manifest or a flag states its rule in one call; the rule
# returns the value in its canonical type or raises ``error`` naming the field and the value.


def _at_least(x, value, what: str, low, strict: bool, error):
    if low is not None and (x < low or strict and x == low):
        rule = "positive" if strict and low == 0 else f"{'>' if strict else '>='} {low}"
        raise error(f"{what} must be {rule}, got {value!r}")
    return x


def as_int(value, what: str, low: int | None = None, error=UsageError) -> int:
    """``value`` as an int of at least ``low``; a bool, or a value that ``int`` refuses or
    changes, raises ``error``."""
    try:
        n = None if isinstance(value, (bool, np.bool_)) else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise error(f"{what} {value!r} is not an integer")
    return _at_least(n, value, what, low, False, error)


def as_real(value, what: str, low: float | None = None, *, strict: bool = False,
            inf: bool = False, error=UsageError) -> float:
    """``value`` as a float of at least ``low`` (above it when ``strict``), infinite only when
    ``inf``; a bool, a string, NaN or a value that ``float`` refuses raises ``error``."""
    x = math.nan
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            x = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if math.isnan(x):
        raise error(f"{what} must be a real number, got {value!r}")
    _at_least(x, value, what, low, strict, error)
    if math.isinf(x) and not inf:
        raise error(f"{what} must be finite, got {value!r}")
    return x


def as_choice(value, what: str, options, error=UsageError):
    """``value`` if it equals one of ``options`` and is of that option's type (so ``1`` is not
    ``True``); anything else raises ``error``."""
    if not any(isinstance(value, type(o)) and value == o for o in options):
        raise error(f"unknown {what} {value!r}; expected one of {', '.join(map(str, options))}")
    return value


def as_distinct(values, what: str, shown=None, error=UsageError) -> list:
    """``values`` as a list if none repeats; a repeat raises ``error`` naming ``shown`` (the
    values as the caller wrote them; the list itself by default)."""
    values = list(values)
    if len(set(values)) != len(values):
        raise error(f"{what} list {(values if shown is None else shown)!r} repeats a {what}")
    return values
