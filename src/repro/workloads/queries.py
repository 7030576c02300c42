"""Random query workloads.

Generates syntactically valid §4 queries with a controllable class mix --
the input distribution for the Decision-Maker experiments ("simulations
on these query types to generate data").
"""

from __future__ import annotations

import numpy as np

from repro import checks

from repro.queries.ast import Query
from repro.queries.language import parse_query

#: Aggregate functions the generator draws from (decomposable + holistic).
_AGG_FUNCS = ("MAX", "MIN", "AVG", "SUM", "COUNT", "MEDIAN", "STD")


class QueryWorkload:
    """A reproducible stream of random queries.

    Parameters
    ----------
    n_sensors:
        Id range for ``sensor_id`` predicates.
    rooms:
        Room-number range for ``room`` predicates.
    mix:
        ``(simple, aggregate, complex, continuous)`` class probabilities;
        normalized internally.
    cost_prob:
        Probability a query carries a COST clause.
    rng:
        Random source.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        n_sensors: int = 49,
        rooms: int = 9,
        mix: tuple[float, float, float, float] = (0.3, 0.4, 0.15, 0.15),
        cost_prob: float = 0.2,
    ) -> None:
        if len(mix) != 4:
            raise ValueError(f"mix must hold 4 weights, got {mix!r}")
        total = checks.positive("sum(mix)", sum(checks.non_negative("mix", m) for m in mix))
        self.rng = rng
        self.n_sensors = checks.count("n_sensors", n_sensors, 1)
        self.rooms = checks.count("rooms", rooms, 1)
        self.mix = tuple(m / total for m in mix)
        self.cost_prob = checks.fraction("cost_prob", cost_prob)
        self.generated = 0

    # ------------------------------------------------------------------
    def _where(self) -> str:
        """A random scope: everything, a room, or a sensor-id range."""
        choice = self.rng.random()
        if choice < 0.4:
            return ""
        if choice < 0.7:
            room = int(self.rng.integers(1, self.rooms + 1))
            return f" WHERE room = {room}"
        lo = int(self.rng.integers(0, self.n_sensors))
        hi = int(self.rng.integers(lo, self.n_sensors)) + 1
        return f" WHERE sensor_id >= {lo} AND sensor_id < {hi}"

    def _cost(self) -> str:
        if self.rng.random() >= self.cost_prob:
            return ""
        metric = ("energy", "time", "accuracy")[int(self.rng.integers(3))]
        limit = {
            "energy": float(self.rng.uniform(0.001, 0.1)),
            "time": float(self.rng.uniform(0.5, 30.0)),
            "accuracy": float(self.rng.uniform(0.01, 0.2)),
        }[metric]
        return f" COST {metric} <= {limit:.4g}"

    def next_text(self) -> str:
        """The next random query as text."""
        self.generated += 1
        u = self.rng.random()
        s, a, c, _ = self.mix
        if u < s:
            sid = int(self.rng.integers(0, self.n_sensors))
            return f"SELECT value FROM sensors WHERE sensor_id = {sid}" + self._cost()
        if u < s + a:
            func = _AGG_FUNCS[int(self.rng.integers(len(_AGG_FUNCS)))]
            return f"SELECT {func}(value) FROM sensors" + self._where() + self._cost()
        if u < s + a + c:
            func = "DISTRIBUTION" if self.rng.random() < 0.7 else "HISTOGRAM"
            return f"SELECT {func}(value) FROM sensors" + self._where() + self._cost()
        # continuous: a simple or aggregate body with an EPOCH clause
        func = _AGG_FUNCS[int(self.rng.integers(len(_AGG_FUNCS)))]
        epoch = float(self.rng.uniform(1.0, 10.0))
        duration = epoch * int(self.rng.integers(2, 6))
        return (
            f"SELECT {func}(value) FROM sensors" + self._where()
            + f" EPOCH DURATION {epoch:.3g} FOR {duration:.3g}"
        )

    def next(self) -> Query:
        """The next random query, parsed."""
        return parse_query(self.next_text())

    def batch(self, n: int) -> list[Query]:
        """``n`` random queries."""
        if n < 1:
            raise ValueError("n must be positive")
        return [self.next() for _ in range(n)]
