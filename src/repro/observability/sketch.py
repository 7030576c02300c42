"""Bounded-memory streaming telemetry primitives.

Grid-scale monitoring cannot retain every raw observation ("Computational
Grids" flags exactly this regime): a 10^5-query soak run would grow the
Monitor's histogram lists and the SLO engine's windows without bound.
This module provides the two fixed-memory substitutes the telemetry path
is built on:

* :class:`QuantileSketch` -- a DDSketch-style log-bucketed quantile
  sketch with a *relative* error bound ``alpha`` (telemetry uses
  :data:`DEFAULT_ALPHA`, 1%): every
  reported quantile ``est`` of a true value ``x`` satisfies
  ``|est - x| <= alpha * |x|``.  Buckets are integer counts keyed by
  ``ceil(log_gamma |x|)`` with ``gamma = (1+alpha)/(1-alpha)``, so
  :meth:`merge` is exact integer addition -- merging sketches of two
  streams equals sketching the concatenated stream, which is what keeps
  ``Monitor.merge()`` and the trial runner's seed-ordered parallel
  reduction bit-identical at any worker count.
* :class:`MultiResolutionSeries` -- a multi-tier ring buffer of
  per-bucket aggregates (count/sum/min/max/last) at widening time
  resolutions (:data:`DEFAULT_RESOLUTIONS`: 1 s / 10 s / 60 s of
  *simulated* time, :data:`DEFAULT_TIER_CAPACITY` buckets each), with
  deterministic front-eviction once a tier's ring is full: recent
  history at full resolution, older history downsampled, fixed memory.

:class:`TelemetryConfig` holds a run's three memory caps: the two
instrument raw tails and the trace ring
(:meth:`~repro.simkernel.monitor.Monitor.configure` and
``PervasiveGridRuntime(telemetry=...)`` consume it).  The sketch and
tier shapes are the constants above.

This module deliberately imports nothing from ``repro`` so the sim
kernel's monitor can import it lazily without a package cycle.
Everything here is deterministic: no wall clock, no global RNG.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import typing

__all__ = ["QuantileSketch", "MultiResolutionSeries", "TelemetryConfig",
           "DEFAULT_ALPHA", "DEFAULT_RESOLUTIONS", "DEFAULT_TIER_CAPACITY"]

#: Relative-error bound of every telemetry quantile sketch (1%).
DEFAULT_ALPHA = 0.01
#: Downsampling tiers of every time series (simulated seconds).
DEFAULT_RESOLUTIONS = (1.0, 10.0, 60.0)
#: Ring capacity (buckets) per downsampling tier.
DEFAULT_TIER_CAPACITY = 240

# bound once for the fold loops
_ceil = math.ceil
_log = math.log
_isfinite = math.isfinite


class QuantileSketch:
    """A mergeable log-bucketed quantile sketch (DDSketch-style).

    Positive and negative values live in separate bucket maps keyed by
    ``ceil(log_gamma |x|)``; exact zeros get their own counter.  Exact
    streaming scalars (count, sum, min, max, last) ride along so merged
    summaries keep exact means and extremes.  Memory is bounded by the
    number of *distinct* buckets, ``O(log(max/min) / alpha)`` -- about
    440 buckets covering nine decades at ``alpha = 0.01``.

    Quantiles interpolate nothing: the bucket midpoint
    ``2 * gamma^i / (gamma + 1)`` is within ``alpha`` relative error of
    every value the bucket holds, and results are clamped to the exact
    observed ``[min, max]``.
    """

    __slots__ = ("alpha", "_gamma", "_mult", "count", "sum", "min", "max",
                 "last", "_zero", "_pos", "_neg")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not (0.0 < alpha < 1.0):
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        self.alpha = float(alpha)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._mult = 1.0 / math.log(self._gamma)
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
        """Fold ``other`` in exactly (integer bucket addition); returns self.

        Requires matching ``alpha`` -- bucket boundaries must agree for
        the merge to stay within the error bound.
        """
        self._check_alpha(other)
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
        self._check_alpha(older)
        out = QuantileSketch(self.alpha)
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
        out = QuantileSketch(self.alpha)
        out.count = self.count
        out.sum = self.sum
        out.min = self.min
        out.max = self.max
        out.last = self.last
        out._zero = self._zero
        out._pos = dict(self._pos)
        out._neg = dict(self._neg)
        return out

    def _check_alpha(self, other: "QuantileSketch") -> None:
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot combine sketches with alpha {self.alpha} and {other.alpha}")

    # -- identity / export ---------------------------------------------
    def state(self) -> tuple:
        """Canonical value: equal states <=> identical sketches.

        The determinism gates compare serial-vs-parallel reductions on
        this (bucket maps in sorted order, scalars verbatim).
        """
        return (self.alpha, self.count, self.sum, self.min, self.max,
                self.last, self._zero,
                tuple(sorted(self._pos.items())),
                tuple(sorted(self._neg.items())))

    def to_dict(self) -> dict:
        """JSON-ready form (keys stringified for JSON round-tripping)."""
        return {
            "alpha": self.alpha, "count": self.count, "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "last": self.last if self.count else None,
            "zero": self._zero,
            "pos": {str(k): v for k, v in sorted(self._pos.items())},
            "neg": {str(k): v for k, v in sorted(self._neg.items())},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "QuantileSketch":
        out = cls(doc["alpha"])
        out.count = int(doc["count"])
        out.sum = float(doc["sum"])
        out.min = math.inf if doc["min"] is None else float(doc["min"])
        out.max = -math.inf if doc["max"] is None else float(doc["max"])
        out.last = math.nan if doc["last"] is None else float(doc["last"])
        out._zero = int(doc["zero"])
        out._pos = {int(k): int(v) for k, v in doc["pos"].items()}
        out._neg = {int(k): int(v) for k, v in doc["neg"].items()}
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QuantileSketch(alpha={self.alpha}, n={self.count}, "
                f"cells={self.cells})")


# bucket tuple layout for MultiResolutionSeries tiers
_IDX, _COUNT, _SUM, _MIN, _MAX, _LAST = range(6)
#: Storage cells per tier bucket (the footprint accounting unit).
BUCKET_CELLS = 6


class MultiResolutionSeries:
    """Fixed-memory time series: per-tier rings of bucket aggregates.

    Each tier covers the time axis at one resolution; a sample at time
    ``t`` folds into bucket ``floor(t / resolution)`` of every tier.
    When a tier exceeds ``capacity`` buckets the *oldest* bucket is
    evicted (counted in :attr:`evictions`), so tier ``r`` retains the
    most recent ``r * capacity`` seconds: 4 minutes at 1 s, 40 minutes
    at 10 s, 4 hours at 60 s with the defaults.  Out-of-order samples
    (monitor merges restart the time axis) fold into their proper bucket
    while it is still retained and are dropped (counted in
    :attr:`late_drops`) once it has been evicted.
    """

    __slots__ = ("resolutions", "capacity", "_tiers", "evictions", "late_drops")

    def __init__(self, resolutions: typing.Sequence[float] = DEFAULT_RESOLUTIONS,
                 capacity: int = DEFAULT_TIER_CAPACITY) -> None:
        if not resolutions:
            raise ValueError("need at least one resolution tier")
        res = tuple(float(r) for r in resolutions)
        if any(r <= 0 for r in res) or list(res) != sorted(set(res)):
            raise ValueError("resolutions must be positive, unique, ascending")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.resolutions = res
        self.capacity = int(capacity)
        # per tier: (resolution, buckets), buckets a list of
        # [idx, count, sum, min, max, last] in ascending idx
        self._tiers: tuple[tuple[float, list[list]], ...] = tuple((r, []) for r in res)
        self.evictions = 0
        self.late_drops = 0

    def record(self, time: float, value: float) -> None:
        """Fold one sample into every tier (:meth:`record_many` of one)."""
        self.record_many((time,), (value,))

    def record_many(self, times: typing.Sequence[float],
                    values: typing.Sequence[float]) -> None:
        """Fold ``(time, value)`` samples into every tier, in order: the
        series' one recording path (O(tiers) amortized per sample).

        Tiers are independent, so folding the samples tier by tier gives
        exactly the buckets of recording them one at a time.  A
        non-finite time has no bucket: it raises ``ValueError`` before
        any tier changes.
        """
        if not all(map(_isfinite, times)):
            bad = next(t for t in times if not _isfinite(t))
            raise ValueError(f"sample times must be finite, got {bad!r}")
        values = [float(v) for v in values]
        for res, buckets in self._tiers:
            last = buckets[-1] if buckets else None
            for time, value in zip(times, values):
                # floor(time / res) as an integral float: it equals the
                # int bucket index exactly, so only a new bucket converts
                # it.  Bucket fields are indexed by their literal
                # positions here.
                idx = time // res
                if last is not None and last[0] == idx:
                    last[1] += 1
                    last[2] += value
                    if value < last[3]:
                        last[3] = value
                    if value > last[4]:
                        last[4] = value
                    last[5] = value
                else:
                    self._fold(buckets, [int(idx), 1, value, value, value, value])
                    last = buckets[-1]

    def _fold(self, buckets: list[list], bucket: list) -> None:
        """Insert-or-merge one bucket, keeping ascending order + capacity."""
        idx = bucket[_IDX]
        if not buckets or idx > buckets[-1][_IDX]:
            buckets.append(bucket)
        else:
            if idx < buckets[0][_IDX]:
                # the target bucket was already evicted; retaining the
                # sample would resurrect unbounded history
                self.late_drops += bucket[_COUNT]
                return
            pos = bisect.bisect_left(buckets, idx, key=lambda b: b[_IDX])
            if pos < len(buckets) and buckets[pos][_IDX] == idx:
                tgt = buckets[pos]
                tgt[_COUNT] += bucket[_COUNT]
                tgt[_SUM] += bucket[_SUM]
                if bucket[_MIN] < tgt[_MIN]:
                    tgt[_MIN] = bucket[_MIN]
                if bucket[_MAX] > tgt[_MAX]:
                    tgt[_MAX] = bucket[_MAX]
                tgt[_LAST] = bucket[_LAST]
            else:
                buckets.insert(pos, bucket)
        while len(buckets) > self.capacity:
            del buckets[0]
            self.evictions += 1

    def merge(self, other: "MultiResolutionSeries") -> "MultiResolutionSeries":
        """Fold ``other``'s buckets in, tier by tier; returns self."""
        if other.resolutions != self.resolutions:
            raise ValueError("cannot merge series with different tier resolutions")
        for (_, buckets), (_, theirs) in zip(self._tiers, other._tiers):
            for bucket in theirs:
                self._fold(buckets, list(bucket))
        self.late_drops += other.late_drops
        return self

    def samples(self, resolution: float | None = None) -> list[tuple]:
        """``(bucket_start_s, count, sum, min, max, last)`` rows for one
        tier (finest by default), oldest first."""
        if resolution is None:
            tier = 0
        else:
            try:
                tier = self.resolutions.index(float(resolution))
            except ValueError:
                raise ValueError(
                    f"no tier at resolution {resolution!r} (have {self.resolutions})"
                ) from None
        res, buckets = self._tiers[tier]
        return [(b[_IDX] * res, b[_COUNT], b[_SUM], b[_MIN], b[_MAX], b[_LAST])
                for b in buckets]

    @property
    def cells(self) -> int:
        """Retained storage cells across all tiers (bounded by
        ``len(resolutions) * capacity * BUCKET_CELLS``)."""
        return len(self) * BUCKET_CELLS

    def __len__(self) -> int:
        return sum(len(buckets) for _, buckets in self._tiers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MultiResolutionSeries(res={self.resolutions}, "
                f"buckets={[len(b) for _, b in self._tiers]})")


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
        the instrument.  The sketch (and a series' tiers) catch up with
        the ring's unfolded values in one fold when the ring holds
        nothing else, and at every read, which folds first; so the cap
        also bounds the unfolded values, and memory stays within the
        same cells.
    max_trace_records:
        Ring size for ``Tracer.records`` (None = unlimited, the
        append-only default; evictions count under ``obs.trace.dropped``).
    """

    histogram_max_raw: int | None = 1024
    series_max_raw: int | None = 1024
    max_trace_records: int | None = None

    def __post_init__(self) -> None:
        for field in ("histogram_max_raw", "series_max_raw", "max_trace_records"):
            v = getattr(self, field)
            if v is not None and v < 1:
                raise ValueError(f"{field} must be >= 1 or None, got {v!r}")
