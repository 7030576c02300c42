"""Bounded-memory streaming telemetry primitives.

Grid-scale monitoring cannot retain every raw observation ("Computational
Grids" flags exactly this regime): a 10^5-query soak run would grow the
Monitor's histogram lists and the SLO engine's windows without bound.
This module provides the fixed-memory substitute the telemetry path is
built on:

* :class:`QuantileSketch` -- a DDSketch-style log-bucketed quantile
  sketch with the fixed *relative* error bound :data:`DEFAULT_ALPHA`
  (1%): every reported quantile ``est`` of a true value ``x`` satisfies
  ``|est - x| <= alpha * |x|``.  Buckets are integer counts keyed by
  ``ceil(log_gamma |x|)`` with ``gamma = (1+alpha)/(1-alpha)``, so
  :meth:`merge` is exact integer addition -- merging sketches of two
  streams equals sketching the concatenated stream, which is what keeps
  ``Monitor.merge()`` and the trial runner's seed-ordered parallel
  reduction bit-identical at any worker count.

:class:`TelemetryConfig` holds a run's three memory caps: the two
instrument raw tails and the trace ring
(:meth:`~repro.simkernel.monitor.Monitor.configure` and
``PervasiveGridRuntime(telemetry=...)`` consume it).  The sketch's shape
is not configurable.

This module deliberately imports nothing from ``repro`` so the sim
kernel's monitor can import it lazily without a package cycle.
Everything here is deterministic: no wall clock, no global RNG.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro import checks

__all__ = ["QuantileSketch", "TelemetryConfig", "DEFAULT_ALPHA"]

#: Relative-error bound of every quantile sketch (1%).
DEFAULT_ALPHA = 0.01

# bound once for the fold loop
_ceil = math.ceil
_log = math.log


class QuantileSketch:
    """A mergeable log-bucketed quantile sketch (DDSketch-style).

    Positive and negative values live in separate bucket maps keyed by
    ``ceil(log_gamma |x|)``; exact zeros get their own counter.  Exact
    streaming scalars (count, sum, min, max, last) ride along so merged
    summaries keep exact means and extremes.  Memory is bounded by the
    number of *distinct* buckets, ``O(log(max/min) / alpha)`` -- about
    1,040 buckets covering nine decades at ``alpha = 0.01``.

    Quantiles interpolate nothing: the bucket midpoint
    ``2 * gamma^i / (gamma + 1)`` is within ``alpha`` relative error of
    every value the bucket holds, and results are clamped to the exact
    observed ``[min, max]``.
    """

    __slots__ = ("count", "sum", "min", "max", "last", "_zero", "_pos", "_neg")

    #: The relative-error bound, shared by every sketch, so any two merge.
    alpha = DEFAULT_ALPHA
    _gamma = (1.0 + alpha) / (1.0 - alpha)
    _mult = 1.0 / math.log(_gamma)

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.last = math.nan
        self._zero = 0
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}

    # -- recording -----------------------------------------------------
    def _midpoint(self, index: int) -> float:
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def observe(self, value: float) -> None:
        """Fold one observation in (:meth:`observe_many` of one value)."""
        self.observe_many((value,))

    def observe_many(self, values: typing.Iterable[float]) -> None:
        """Fold observations in, in order: the sketch's one recording path.

        Each value costs a handful of float ops; a nonzero value lands in
        bucket ``ceil(log|value| * mult)``.  The result is exactly that of
        observing the values one at a time (``sum`` adds them in order).
        A value that is not finite raises :class:`ValueError` and leaves
        the sketch holding exactly the values before it: each value is
        bucketed before its scalars move, so NaN (no bucket) and ``inf``
        (``ceil`` overflows) stop the fold before touching anything.
        """
        mult = self._mult
        pos = self._pos
        neg = self._neg
        count, total, lo, hi, last, zero = (self.count, self.sum, self.min,
                                            self.max, self.last, self._zero)
        try:
            for value in values:
                value = float(value)
                if value > 0.0:
                    idx = _ceil(_log(value) * mult)
                    pos[idx] = pos.get(idx, 0) + 1
                elif value < 0.0:
                    idx = _ceil(_log(-value) * mult)
                    neg[idx] = neg.get(idx, 0) + 1
                elif value == 0.0:
                    zero += 1
                else:
                    raise ValueError(f"sketch values must be finite, got {value!r}")
                count += 1
                total += value
                if value < lo:
                    lo = value
                if value > hi:
                    hi = value
                last = value
        except OverflowError:
            raise ValueError(f"sketch values must be finite, got {value!r}") from None
        finally:
            self.count = count
            self.sum = total
            self.min = lo
            self.max = hi
            self.last = last
            self._zero = zero

    # -- reading -------------------------------------------------------
    def __len__(self) -> int:
        return self.count

    @property
    def cells(self) -> int:
        """Retained storage cells (the bounded-memory accounting unit)."""
        return len(self._pos) + len(self._neg) + 1

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``q`` in [0, 1]); nan when empty.

        Within ``alpha`` relative error of the exact empirical quantile
        (nearest-rank convention matching ``np.percentile`` up to the
        bucket's guaranteed error band).
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {q!r}")
        if self.count == 0:
            return math.nan
        rank = q * (self.count - 1)
        cum = 0
        # ascending value order: negatives (largest magnitude first),
        # zeros, positives
        for idx in sorted(self._neg, reverse=True):
            cum += self._neg[idx]
            if cum > rank:
                return self._clamp(-self._midpoint(idx))
        cum += self._zero
        if cum > rank:
            return self._clamp(0.0)
        for idx in sorted(self._pos):
            cum += self._pos[idx]
            if cum > rank:
                return self._clamp(self._midpoint(idx))
        return self.max  # pragma: no cover - defensive (rank <= count-1)

    def percentile(self, q: float) -> float:
        """``q``-th percentile (``q`` in [0, 100]), np.percentile-style."""
        return self.quantile(q / 100.0)

    def _clamp(self, value: float) -> float:
        return min(max(value, self.min), self.max)

    def mean(self) -> float:
        """Exact arithmetic mean (nan when empty)."""
        return self.sum / self.count if self.count else math.nan

    # -- algebra -------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` in exactly (integer bucket addition); returns self."""
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        if other.count:
            self.last = other.last
        self._zero += other._zero
        for idx, n in other._pos.items():
            self._pos[idx] = self._pos.get(idx, 0) + n
        for idx, n in other._neg.items():
            self._neg[idx] = self._neg.get(idx, 0) + n
        return self

    def diff(self, older: "QuantileSketch | None") -> "QuantileSketch":
        """The sketch of observations in ``self`` but not in ``older``.

        ``older`` must be a snapshot (:meth:`copy`) of this sketch's own
        past -- bucket-wise subtraction is then exact.  The delta's
        min/max are bucket-midpoint approximations (the exact extremes
        of just the new observations are unrecoverable), still within
        ``alpha`` relative error.  ``older=None`` returns a copy.
        """
        if older is None:
            return self.copy()
        out = QuantileSketch()
        out.count = self.count - older.count
        out.sum = self.sum - older.sum
        out.last = self.last
        out._zero = self._zero - older._zero
        if out.count < 0 or out._zero < 0:
            raise ValueError("diff() needs an older snapshot of the same sketch")
        for idx, n in self._pos.items():
            d = n - older._pos.get(idx, 0)
            if d < 0:
                raise ValueError("diff() needs an older snapshot of the same sketch")
            if d:
                out._pos[idx] = d
        for idx, n in self._neg.items():
            d = n - older._neg.get(idx, 0)
            if d < 0:
                raise ValueError("diff() needs an older snapshot of the same sketch")
            if d:
                out._neg[idx] = d
        if out.count:
            lo, hi = [], []
            if out._neg:
                lo.append(-self._midpoint(max(out._neg)))
                hi.append(-self._midpoint(min(out._neg)))
            if out._zero:
                lo.append(0.0)
                hi.append(0.0)
            if out._pos:
                lo.append(self._midpoint(min(out._pos)))
                hi.append(self._midpoint(max(out._pos)))
            out.min = min(lo)
            out.max = max(hi)
        return out

    def copy(self) -> "QuantileSketch":
        """An independent snapshot."""
        out = QuantileSketch()
        out.count = self.count
        out.sum = self.sum
        out.min = self.min
        out.max = self.max
        out.last = self.last
        out._zero = self._zero
        out._pos = dict(self._pos)
        out._neg = dict(self._neg)
        return out

    # -- identity -------------------------------------------------------
    def state(self) -> tuple:
        """Canonical value: equal states <=> identical sketches.

        The determinism gates compare serial-vs-parallel reductions on
        this (bucket maps in sorted order, scalars verbatim).
        """
        return (self.count, self.sum, self.min, self.max, self.last, self._zero,
                tuple(sorted(self._pos.items())),
                tuple(sorted(self._neg.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QuantileSketch(n={self.count}, cells={self.cells})"


@dataclasses.dataclass(frozen=True)
class TelemetryConfig:
    """Bounded-telemetry caps for one run.

    Consumed by :meth:`repro.simkernel.monitor.Monitor.configure` and
    ``PervasiveGridRuntime(telemetry=...)``.  ``None`` caps mean
    unlimited (the pre-sketch behavior).

    Attributes
    ----------
    histogram_max_raw / series_max_raw:
        Exact raw observations each instrument retains (newest-first
        ring).  While an instrument has dropped nothing its reductions
        are exact; past the cap, percentiles come from its sketch
        (within :data:`DEFAULT_ALPHA`) and the drop count is visible on
        the instrument.  The sketch catches up with the ring's unfolded
        values in one fold when the ring holds nothing else, and at
        every read, which folds first; so the cap also bounds the
        unfolded values, and memory stays within the same cells.
    max_trace_records:
        Ring size for ``Tracer.records`` (None = unlimited, the
        append-only default; evictions count under ``obs.trace.dropped``).
    """

    histogram_max_raw: int | None = 1024
    series_max_raw: int | None = 1024
    max_trace_records: int | None = None

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value is not None:
                checks.count(field.name, value, 1)
