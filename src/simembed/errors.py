"""Exception types shared across the package, and the one range check of
the numeric config fields.

A config class declares each number field's range in its type hint,
``rate: Annotated[float, Range(0, 1, "[)")]``, and calls
:func:`check_ranges` from ``__post_init__``, so the range holds however
the class is built; an ``int`` field takes integers, numpy's included,
a ``float`` field real numbers, and neither a bool.  ``get_type_hints``
drops the range unless asked for extras, so plain readers see ``float``.
"""

from __future__ import annotations

import functools
import math
import numbers
import typing


class SimEmbedError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(SimEmbedError, ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class ConfigError(SimEmbedError, ValueError):
    """A configuration value or document is invalid."""


class FormatError(SimEmbedError, ValueError):
    """A serialized file or byte stream is malformed."""


class NumericError(SimEmbedError, ArithmeticError):
    """A computation produced or received non-finite values."""


class DataError(SimEmbedError, ValueError):
    """Dataset contents violate a precondition (missing ids, empty pools,
    degenerate inputs)."""


class Range(typing.NamedTuple):
    """The finite numbers from ``low`` to ``high``, each end closed (``[``,
    ``]``) or open (``(``, ``)``) as ``ends`` marks it; ``value in range``
    tests a number."""

    low: float
    high: float = math.inf
    ends: str = "[]"

    def __contains__(self, value: float) -> bool:
        above = value > self.low or value == self.low and self.ends[0] == "["
        below = value < self.high or value == self.high and self.ends[1] == "]"
        return math.isfinite(value) and above and below

    def __str__(self) -> str:
        if self.high == math.inf:
            return f"{'>=' if self.ends[0] == '[' else '>'} {self.low}"
        return f"in {self.ends[0]}{self.low}, {self.high}{self.ends[1]}"


@functools.cache
def _ranges(cls: type) -> tuple[tuple[str, Range, bool, bool], ...]:
    """``(field, range, takes None, takes only integers)`` for each ranged
    field of ``cls``."""
    ranged = []
    for name, hint in typing.get_type_hints(cls, include_extras=True).items():
        if typing.get_origin(hint) is typing.Annotated:
            base, bound = typing.get_args(hint)
            types = typing.get_args(base) or (base,)
            ranged.append((name, bound, type(None) in types, int in types))
    return tuple(ranged)


def check_ranges(config: object) -> None:
    """Raise ``ConfigError`` for the first field of ``config`` that is a
    bool or not of its hinted kind of number, or outside the range the
    hint declares."""
    for name, bound, optional, integral in _ranges(type(config)):
        value = getattr(config, name)
        if optional and value is None:
            continue
        either = "None or " if optional else ""
        noun, kind = ("an integer", numbers.Integral) if integral \
            else ("a number", numbers.Real)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{name} must be {either}{noun}, got {value!r}")
        if value not in bound:
            raise ConfigError(f"{name} must be {either}{bound}, got {value}")
