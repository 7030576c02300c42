"""Argument checks: every constructor validates the numbers a caller sets here.

Each check returns its value, or raises ``ValueError`` worded
``<name> must be <rule>, got <value!r>`` for a value out of range and for
one that is not a number of the right kind alike.  NaN fails every check;
``inf=True`` admits ``+inf`` where a parameter gives it a meaning, such as
"no limit".  Only the standard library is imported, so every layer can use it.
"""

from __future__ import annotations

import math
import numbers

_INF = math.inf


def _fail(name: str, value: object, rule: str) -> ValueError:
    return ValueError(f"{name} must be {rule}, got {value!r}")


def finite(name: str, value: float, *, low: float = -_INF) -> float:
    """A finite real number ``>= low``."""
    try:
        if -_INF < value < _INF and value >= low:  # every comparison with NaN is False
            return value
    except TypeError:  # not a number
        pass
    raise _fail(name, value, "finite" if low == -_INF else f"finite and >= {low:g}")


def non_negative(name: str, value: float, *, inf: bool = False) -> float:
    """A finite number ``>= 0``, or ``+inf`` too when ``inf``."""
    try:
        if 0.0 <= value < _INF or (inf and value == _INF):
            return value
    except TypeError:
        pass
    raise _fail(name, value, "non-negative or inf" if inf else "finite and non-negative")


def positive(name: str, value: float, *, inf: bool = False) -> float:
    """A finite number ``> 0``, or ``+inf`` too when ``inf``."""
    try:
        if 0.0 < value < _INF or (inf and value == _INF):
            return value
    except TypeError:
        pass
    raise _fail(name, value, "positive or inf" if inf else "finite and positive")


def fraction(name: str, value: float, *, high: float = 1.0,
             open_low: bool = False, open_high: bool = False) -> float:
    """A number in ``[0, high]``, less either end that is open."""
    try:
        if (0.0 < value if open_low else 0.0 <= value) and (
                value < high if open_high else value <= high):
            return value
    except TypeError:
        pass
    raise _fail(name, value, f"in {'(' if open_low else '['}0, {high:g}"
                             f"{')' if open_high else ']'}")


def count(name: str, value: int, low: int = 0, high: int | None = None) -> int:
    """An ``int`` or numpy integer, never a ``bool``, in ``[low, high]``."""
    if (value.__class__ is int or isinstance(value, numbers.Integral)
            and not isinstance(value, bool)) and low <= value and (high is None or value <= high):
        return value
    rule = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise _fail(name, value, f"an integer {rule}")
