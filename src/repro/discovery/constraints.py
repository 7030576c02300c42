"""Constraints and preferences over service attributes.

The expressiveness the paper says Jini-era discovery lacks: requests can
carry *non-equality* hard constraints ("will print in color but only
within a prespecified cost constraint") and soft *preferences* that rank
the surviving candidates ("the shortest print queue", "geographically the
closest").
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

from repro import checks

#: Supported comparison operators for hard constraints.
OPERATORS: dict[str, typing.Callable[[typing.Any, typing.Any], bool]] = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "in": lambda a, b: a in b,
    "contains": lambda a, b: b in a,
}


@dataclasses.dataclass(frozen=True)
class Constraint:
    """A hard predicate over one service attribute.

    ``attribute op value`` -- e.g. ``Constraint("cost_per_page", "<=", 0.10)``.
    A service missing the attribute fails the constraint (closed-world).

    Attributes
    ----------
    attribute:
        Attribute name in the service description.
    op:
        One of :data:`OPERATORS`.
    value:
        The comparison operand.
    """

    attribute: str
    op: str
    value: typing.Any

    def __post_init__(self) -> None:
        if self.op not in OPERATORS:
            raise ValueError(f"unknown operator {self.op!r}; expected one of {sorted(OPERATORS)}")

    def satisfied_by(self, attributes: typing.Mapping[str, typing.Any]) -> bool:
        """Evaluate against a service's attribute mapping."""
        if self.attribute not in attributes:
            return False
        try:
            return bool(OPERATORS[self.op](attributes[self.attribute], self.value))
        except TypeError:
            return False

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


@dataclasses.dataclass(frozen=True)
class Preference:
    """A soft ranking criterion over one numeric attribute.

    ``goal`` is ``"minimize"`` or ``"maximize"``; ``weight`` scales this
    preference's contribution to the overall utility.  Utilities are
    normalized per candidate set, so weights are comparable across
    attributes with different units.
    """

    attribute: str
    goal: str = "minimize"
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.goal not in ("minimize", "maximize"):
            raise ValueError("goal must be 'minimize' or 'maximize'")
        checks.positive("weight", self.weight)

    def utility_array(self, values: np.ndarray) -> np.ndarray:
        """Utilities in [0, 1] of the candidates whose attribute values are
        ``values`` (float64, NaN where absent or non-numeric; see
        :func:`numeric_value`).

        Min-max normalized over the candidate set; a candidate set with a
        constant attribute value gets utility 1.0 everywhere (all tie).
        Non-finite values (NaN, ±inf) count as absent and get 0.5: an
        infinite value would stretch the span to infinity and collapse
        every other candidate's utility.  A span too wide for a float is
        taken over halved values, so no utility is ever NaN.
        """
        out = None
        lo = hi = math.nan
        if len(values):
            lo, hi = float(values.min()), float(values.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            # a NaN or an infinity among them (min and max pass NaN on):
            # normalize over the finite values, the rest get 0.5
            present = np.isfinite(values)
            out = np.full(len(values), 0.5)
            if not present.any():
                return out
            values = values[present]
            lo, hi = float(values.min()), float(values.max())
        span = hi - lo
        if span == 0.0:
            utility = np.full(len(values), 1.0)
        else:
            if math.isinf(span):
                values, lo, span = values * 0.5, lo * 0.5, hi * 0.5 - lo * 0.5
            u = (values - lo) / span
            utility = 1.0 - u if self.goal == "minimize" else u
        if out is None:
            return utility
        out[present] = utility
        return out


def numeric_value(value: typing.Any) -> float:
    """An attribute value as a preference reads it: ints and floats (not
    bools) as a float, anything else NaN (absent)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return math.nan
