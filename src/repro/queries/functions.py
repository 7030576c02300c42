"""Aggregate and complex functions.

TAG's taxonomy (which the paper builds on) distinguishes *decomposable*
aggregates -- those with a partial-state record that merges associatively,
so they can be computed inside the network -- from *holistic* ones
(MEDIAN), whose exact value needs every reading.  The execution models
respect this: the in-network tree model only accepts decomposable
functions.

Complex functions ("any arbitrary function") are registered separately;
``DISTRIBUTION`` is the paper's temperature-distribution PDE solve.
"""

from __future__ import annotations

import typing

import numpy as np

from repro import checks


class PartialAggregate:
    """A TAG partial-state record: (init, merge, finalize).

    Parameters
    ----------
    name:
        Aggregate name (upper-case).
    init:
        ``value -> state`` for one reading.
    merge:
        ``(state, state) -> state``; must be associative and commutative.
    finalize:
        ``state -> float``.
    state_size_bits:
        Wire size of one partial record.
    """

    def __init__(
        self,
        name: str,
        init: typing.Callable[[float], typing.Any],
        merge: typing.Callable[[typing.Any, typing.Any], typing.Any],
        finalize: typing.Callable[[typing.Any], float],
        state_size_bits: float = 64.0,
    ) -> None:
        self.name = name
        self.init = init
        self.merge = merge
        self.finalize = finalize
        self.state_size_bits = checks.non_negative("state_size_bits", state_size_bits)

    def compute(self, values: typing.Sequence[float]) -> float:
        """Fold all values through init/merge/finalize (reference path)."""
        if len(values) == 0:
            raise ValueError(f"{self.name} of an empty set")
        state = self.init(float(values[0]))
        for v in values[1:]:
            state = self.merge(state, self.init(float(v)))
        return self.finalize(state)


def _merge_std(a, b):
    """Chan's parallel-variance merge of two (count, mean, M2) records."""
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    delta = mb - ma
    return (n, ma + delta * nb / n, m2a + m2b + delta * delta * na * nb / n)


#: Decomposable aggregates with TAG partial-state records.
DECOMPOSABLE: dict[str, PartialAggregate] = {
    "MAX": PartialAggregate("MAX", lambda v: v, max, float),
    "MIN": PartialAggregate("MIN", lambda v: v, min, float),
    "SUM": PartialAggregate("SUM", lambda v: v, lambda a, b: a + b, float),
    "COUNT": PartialAggregate("COUNT", lambda v: 1.0, lambda a, b: a + b, float),
    "AVG": PartialAggregate(
        "AVG",
        lambda v: (v, 1.0),
        lambda a, b: (a[0] + b[0], a[1] + b[1]),
        lambda s: s[0] / s[1],
        state_size_bits=128.0,
    ),
    # STD via (count, mean, M2) -- decomposable; Chan's parallel-variance
    # merge avoids the cancellation of the naive sum-of-squares form
    # (whose E[x^2] - mean^2 residue is ~1e-8 even for constant inputs)
    "STD": PartialAggregate(
        "STD",
        lambda v: (1.0, v, 0.0),
        _merge_std,
        lambda s: float(np.sqrt(max(s[2] / s[0], 0.0))),
        state_size_bits=192.0,
    ),
}

#: Holistic aggregates: exact value needs all readings (no partial record).
HOLISTIC: dict[str, typing.Callable[[np.ndarray], float]] = {
    "MEDIAN": lambda values: float(np.median(values)),
}

#: All aggregate names, for the classifier.
AGGREGATES: dict[str, typing.Callable[[np.ndarray], float]] = {
    **{name: (lambda pa: lambda values: pa.compute(list(np.asarray(values, dtype=float))))(pa)
       for name, pa in DECOMPOSABLE.items()},
    **HOLISTIC,
}

#: Complex functions: arbitrary computations over the reading set.  The
#: registry stores metadata used by the cost model; actual execution
#: lives in the execution models (the PDE solve needs the deployment).
COMPLEX_FUNCTIONS: dict[str, dict] = {
    "DISTRIBUTION": {
        "description": "steady-state temperature field via 2-D PDE solve",
        "output_bits_per_point": 64.0,
    },
    "DISTRIBUTION3D": {
        "description": "the paper's literal query: a 3-D PDE solve over the "
                       "building volume (sensors anchored at mount height)",
        "output_bits_per_point": 64.0,
    },
    "HISTOGRAM": {
        "description": "value histogram over the reading set",
        "output_bits_per_point": 64.0,
    },
}


def is_aggregate(func: str) -> bool:
    """True iff ``func`` is a registered aggregate (decomposable or not)."""
    return func.upper() in AGGREGATES


def is_decomposable(func: str) -> bool:
    """True iff ``func`` has a TAG partial-state record."""
    return func.upper() in DECOMPOSABLE


def is_complex(func: str) -> bool:
    """True for registered complex functions *and* unknown functions.

    The paper allows "any arbitrary function"; anything the aggregate
    registry does not know is treated as complex (worst case).
    """
    f = func.upper()
    return f in COMPLEX_FUNCTIONS or (not is_aggregate(f))


def compute_aggregate(func: str, values: np.ndarray) -> float:
    """Evaluate a registered aggregate over raw values."""
    f = func.upper()
    if f not in AGGREGATES:
        raise KeyError(f"unknown aggregate {func!r}")
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError(f"{func} of an empty set")
    return float(AGGREGATES[f](values))
