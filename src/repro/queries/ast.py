"""Query AST nodes."""

from __future__ import annotations

import dataclasses
import typing

from repro import checks


@dataclasses.dataclass(frozen=True)
class SelectItem:
    """One SELECT entry: a bare attribute or ``func(attr)``.

    ``func`` is None for bare attributes; function names are stored
    upper-case.
    """

    attr: str
    func: str | None = None

    def __str__(self) -> str:
        return f"{self.func}({self.attr})" if self.func else self.attr


@dataclasses.dataclass(frozen=True)
class Predicate:
    """One WHERE predicate: ``attribute op literal``."""

    attribute: str
    op: str
    value: typing.Any

    _OPS: typing.ClassVar[dict[str, typing.Callable]] = {
        "=": lambda a, b: a == b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
    }

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown predicate operator {self.op!r}")

    def holds(self, attributes: typing.Mapping[str, typing.Any]) -> bool:
        """Evaluate against an attribute map (missing attribute = False)."""
        if self.attribute not in attributes:
            return False
        try:
            return bool(self._OPS[self.op](attributes[self.attribute], self.value))
        except TypeError:
            return False

    def __str__(self) -> str:
        return f"{self.attribute} {self.op} {self.value!r}"


@dataclasses.dataclass(frozen=True)
class CostClause:
    """COST constraint: evaluate within ``limit`` of ``metric``.

    Metrics (from the paper): ``energy`` (joules), ``time`` (seconds),
    ``accuracy`` (maximum tolerated relative error, in [0, 1]).
    """

    metric: str
    limit: float

    METRICS: typing.ClassVar[tuple[str, ...]] = ("energy", "time", "accuracy")

    def __post_init__(self) -> None:
        if self.metric not in self.METRICS:
            raise ValueError(f"COST metric must be one of {self.METRICS}")
        checks.non_negative("limit", self.limit)


@dataclasses.dataclass(frozen=True)
class Query:
    """A parsed sensor query.

    Attributes
    ----------
    select:
        The SELECT items.
    where:
        Conjunctive predicates (empty = all sensors).
    cost:
        Optional COST clause.
    epoch_s:
        Interval between results for continuous queries (None = one-shot).
    duration_s:
        Optional total lifetime of a continuous query.
    window_s:
        For continuous queries: each reported value re-aggregates the
        epochs of the trailing window (the paper's "Continuous/Windowed"
        class).  None = report each epoch independently.
    raw:
        Original query text (diagnostics).
    """

    select: tuple[SelectItem, ...]
    where: tuple[Predicate, ...] = ()
    cost: CostClause | None = None
    epoch_s: float | None = None
    duration_s: float | None = None
    window_s: float | None = None
    raw: str = ""

    def __post_init__(self) -> None:
        if not self.select:
            raise ValueError("query must select something")
        for name in ("epoch_s", "duration_s", "window_s"):
            if getattr(self, name) is not None:
                checks.positive(name, getattr(self, name))
        if self.window_s is not None:
            if self.epoch_s is None:
                raise ValueError("WINDOW requires an EPOCH clause")
            if self.window_s < self.epoch_s:
                raise ValueError("window must be at least one epoch long")

    @property
    def functions(self) -> tuple[str, ...]:
        """All function names appearing in SELECT (upper-case, deduped)."""
        seen = []
        for item in self.select:
            if item.func and item.func not in seen:
                seen.append(item.func)
        return tuple(seen)

    @property
    def is_continuous(self) -> bool:
        """True when an EPOCH clause is present."""
        return self.epoch_s is not None
