"""Statistics collection for simulation runs.

:class:`Monitor` aggregates named :class:`Counter`, :class:`Gauge`,
:class:`Histogram` and :class:`TimeSeries` instruments.  Instruments are
cheap to record into (append / scalar assignment) and reduce to summary
statistics only on demand, so instrumentation does not distort
timing-sensitive benchmarks.

Memory bounds
-------------
Histograms and time series are *bounded*: each retains an exact raw tail
of the newest ``max_raw`` observations (default 1024) and, once the tail
would overflow, spills into a mergeable
:class:`~repro.observability.sketch.QuantileSketch` (and, for series, a
:class:`~repro.observability.sketch.MultiResolutionSeries` of
downsampled tiers).  While nothing has been dropped every reduction is
exact -- bit-identical to the historical raw-list behavior; past the cap,
counts/means/extremes stay exact (streamed scalars) and percentiles come
from the sketch within its configured relative error.  ``max_raw=None``
restores unbounded raw retention.  :meth:`Monitor.configure` applies a
:class:`~repro.observability.sketch.TelemetryConfig` to every current
and future instrument; :meth:`Monitor.footprint` reports retained cells
(the deterministic memory accounting the E14 benchmark gates on).

Naming conventions for instruments live in
:mod:`repro.observability.metrics` (``<subsystem>.<noun>[_<unit>]``);
:meth:`Monitor.merge` combines monitors across benchmark repetitions --
sketch merges are exact integer bucket addition, so the parallel trial
runner's seed-ordered reduction stays bit-identical at any worker count.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing

import numpy as np

#: Default exact-raw-tail length for histograms and time series.
DEFAULT_MAX_RAW = 1024
#: Default sketch relative-error bound (mirrors sketch.DEFAULT_ALPHA).
DEFAULT_ALPHA = 0.01
#: Default downsampling tiers for time series (simulated seconds).
DEFAULT_RESOLUTIONS = (1.0, 10.0, 60.0)
#: Default ring capacity (buckets) per downsampling tier.
DEFAULT_TIER_CAPACITY = 240


def _sketch_module():
    """Import :mod:`repro.observability.sketch` lazily.

    Deferred to first use (instrument spill) because importing the
    ``repro.observability`` package at module scope would cycle back
    into this module via the metrics catalog.
    """
    from repro.observability import sketch

    return sketch


@dataclasses.dataclass
class Counter:
    """A monotonically accumulating scalar (messages sent, joules spent)."""

    name: str
    value: float = 0.0
    increments: int = 0

    def add(self, amount: float = 1.0) -> None:
        """Accumulate ``amount`` (may be fractional, must be finite)."""
        if not math.isfinite(amount):
            raise ValueError(f"counter {self.name!r}: amount must be finite, got {amount!r}")
        self.value += amount
        self.increments += 1

    def reset(self) -> None:
        """Zero the counter (used between benchmark repetitions)."""
        self.value = 0.0
        self.increments = 0


@dataclasses.dataclass
class Gauge:
    """A last-value-wins scalar (queue depth, active faults, % battery)."""

    name: str
    value: float = math.nan
    updates: int = 0

    def set(self, value: float) -> None:
        """Record the instrument's current value (must be finite)."""
        if not math.isfinite(value):
            raise ValueError(f"gauge {self.name!r}: value must be finite, got {value!r}")
        self.value = float(value)
        self.updates += 1

    def reset(self) -> None:
        """Forget the value (used between benchmark repetitions)."""
        self.value = math.nan
        self.updates = 0


class Histogram:
    """A bounded distribution of observations (latencies, sizes).

    Observations are buffered raw in a Python list until ``max_raw``
    would be exceeded, then *spilled*: the raw buffer becomes a ring of
    the newest ``max_raw`` values and a :class:`QuantileSketch` carries
    the full distribution forever.  While :attr:`dropped` is 0 every
    reduction is exact over the raw values (the historical behavior);
    afterwards count/mean/max stay exact and :meth:`percentile` answers
    from the sketch within its ``alpha`` relative-error bound.
    """

    __slots__ = ("name", "_values", "_max_raw", "_alpha", "_sketch")

    def __init__(self, name: str, max_raw: int | None = DEFAULT_MAX_RAW,
                 alpha: float = DEFAULT_ALPHA) -> None:
        self.name = name
        self._values: typing.MutableSequence[float] = []
        self._max_raw = max_raw
        self._alpha = alpha
        self._sketch = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        sketch = self._sketch
        if sketch is None:
            values = self._values
            values.append(value)
            if self._max_raw is not None and len(values) >= self._max_raw:
                self._spill()
            return
        sketch.observe(value)
        self._values.append(value)  # a full ring drops its oldest value

    def _spill(self) -> None:
        """Switch to sketch-backed mode, folding the raw buffer in.

        A reconfigure-shrink spills with more raw values than the new
        cap; the truncated oldest ones count as dropped.
        """
        sketch = _sketch_module().QuantileSketch(self._alpha)
        for v in self._values:
            sketch.observe(v)
        self._sketch = sketch
        self._values = collections.deque(self._values, maxlen=self._max_raw)

    def __len__(self) -> int:
        return self._sketch.count if self._sketch is not None else len(self._values)

    @property
    def values(self) -> np.ndarray:
        """Retained raw observations as a float64 array (copy).

        The complete history while :attr:`dropped` is 0; the newest
        ``max_raw`` observations afterwards.
        """
        return np.fromiter(self._values, dtype=np.float64, count=len(self._values))

    @property
    def dropped(self) -> int:
        """Observations no longer in the raw tail (0 = tail is complete):
        everything the sketch holds minus what the ring still holds."""
        sketch = self._sketch
        return 0 if sketch is None else sketch.count - len(self._values)

    @property
    def sketch(self):
        """The instrument's :class:`QuantileSketch` (None until spilled)."""
        return self._sketch

    @property
    def sum(self) -> float:
        """Exact sum of all observations ever recorded."""
        if self._sketch is not None:
            return self._sketch.sum
        return float(builtins_sum(self._values))

    @property
    def last(self) -> float:
        """Most recent observation (nan when empty)."""
        if self._values:
            return self._values[-1]
        return self._sketch.last if self._sketch is not None else math.nan

    def ensure_sketch(self) -> None:
        """Materialize the sketch now (idempotent).

        The SLO evaluator calls this on watched instruments so sketch
        deltas are available from its first tick, before any drop.
        """
        if self._sketch is None:
            self._spill()

    @property
    def cells(self) -> int:
        """Retained storage cells (raw tail + sketch buckets)."""
        return len(self._values) + (self._sketch.cells if self._sketch is not None else 0)

    def mean(self) -> float:
        """Arithmetic mean, exact at any volume (nan when empty)."""
        if self.dropped:
            return self._sketch.mean()
        return float(np.mean(self.values)) if len(self._values) else math.nan

    def max(self) -> float:
        """Largest observation ever, exact at any volume (nan when empty)."""
        if self.dropped:
            return self._sketch.max
        return float(np.max(self.values)) if len(self._values) else math.nan

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (nan when empty).

        Exact (interpolated, numpy convention) while the raw tail is
        complete; from the sketch -- within ``alpha`` relative error --
        once observations have been dropped.
        """
        if self.dropped:
            return self._sketch.percentile(q)
        return float(np.percentile(self.values, q)) if len(self._values) else math.nan

    def extend(self, other: "Histogram") -> None:
        """Fold every observation of ``other`` in (sketches merge exactly)."""
        if other._sketch is None:
            if self._sketch is None and self._max_raw is None:
                self._values.extend(other._values)
                return
            for v in other._values:
                self.observe(v)
            return
        if self._sketch is None:
            self._spill()
        self._sketch.merge(other._sketch)
        self._values.extend(other._values)

    def reconfigure(self, max_raw: int | None = None, alpha: float | None = None) -> None:
        """Re-bound the instrument (meant for empty/young instruments).

        Shrinking ``max_raw`` below the current buffer spills and trims
        the oldest values; ``alpha`` cannot change once a sketch exists.
        """
        if alpha is not None:
            if self._sketch is not None and alpha != self._alpha:
                raise ValueError(
                    f"histogram {self.name!r}: cannot change alpha after spilling")
            self._alpha = alpha
        if max_raw is not None or self._max_raw is not None:
            self._max_raw = max_raw
            if self._sketch is None:
                if max_raw is not None and len(self._values) >= max_raw:
                    self._spill()
            else:
                self._values = collections.deque(self._values, maxlen=max_raw)


class TimeSeries:
    """A bounded sequence of ``(time, value)`` samples.

    Provides summary reductions used throughout the experiment harness.
    Samples are buffered raw in Python lists (HPC guide: vectorize
    reductions, keep the recording path allocation-free in the common
    case) until ``max_raw`` would be exceeded, then *spilled*: the raw
    buffers become rings of the newest samples, a
    :class:`QuantileSketch` carries the value distribution, and a
    :class:`MultiResolutionSeries` (:attr:`tiers`) keeps deterministic
    downsampled history at widening time resolutions.  While
    :attr:`dropped` is 0 every reduction is exact.
    """

    __slots__ = ("name", "_times", "_values", "_max_raw", "_alpha",
                 "_resolutions", "_tier_capacity", "_sketch", "tiers")

    def __init__(self, name: str, max_raw: int | None = DEFAULT_MAX_RAW,
                 alpha: float = DEFAULT_ALPHA,
                 resolutions: typing.Sequence[float] = DEFAULT_RESOLUTIONS,
                 tier_capacity: int = DEFAULT_TIER_CAPACITY) -> None:
        self.name = name
        self._times: typing.MutableSequence[float] = []
        self._values: typing.MutableSequence[float] = []
        self._max_raw = max_raw
        self._alpha = alpha
        self._resolutions = tuple(resolutions)
        self._tier_capacity = tier_capacity
        self._sketch = None
        #: Downsampled multi-resolution history (None until spilled;
        #: call :meth:`ensure_sketch` to materialize eagerly).
        self.tiers = None

    def record(self, time: float, value: float) -> None:
        """Append one sample."""
        sketch = self._sketch
        if sketch is None:
            self._times.append(time)
            self._values.append(value)
            if self._max_raw is not None and len(self._values) >= self._max_raw:
                self._spill()
            return
        sketch.observe(value)
        self.tiers.record(time, value)
        # full rings drop their oldest sample
        self._times.append(time)
        self._values.append(value)

    def _spill(self) -> None:
        """Switch to sketch+tier-backed mode, folding the raw buffers in.

        A reconfigure-shrink spills with more raw samples than the new
        cap; the truncated oldest ones count as dropped.
        """
        mod = _sketch_module()
        sketch = mod.QuantileSketch(self._alpha)
        tiers = mod.MultiResolutionSeries(self._resolutions, self._tier_capacity)
        for t, v in zip(self._times, self._values):
            sketch.observe(v)
            tiers.record(t, v)
        self._sketch = sketch
        self.tiers = tiers
        self._times = collections.deque(self._times, maxlen=self._max_raw)
        self._values = collections.deque(self._values, maxlen=self._max_raw)

    def __len__(self) -> int:
        return self._sketch.count if self._sketch is not None else len(self._values)

    @property
    def times(self) -> np.ndarray:
        """Retained sample times as a float64 array (copy)."""
        return np.fromiter(self._times, dtype=np.float64, count=len(self._times))

    @property
    def values(self) -> np.ndarray:
        """Retained sample values as a float64 array (copy)."""
        return np.fromiter(self._values, dtype=np.float64, count=len(self._values))

    @property
    def dropped(self) -> int:
        """Samples no longer in the raw tail (0 = tail is complete):
        everything the sketch holds minus what the rings still hold."""
        sketch = self._sketch
        return 0 if sketch is None else sketch.count - len(self._values)

    @property
    def sketch(self):
        """The value-distribution :class:`QuantileSketch` (None until spilled)."""
        return self._sketch

    def ensure_sketch(self) -> None:
        """Materialize sketch and tiers now (idempotent); see
        :meth:`Histogram.ensure_sketch`."""
        if self._sketch is None:
            self._spill()

    @property
    def cells(self) -> int:
        """Retained storage cells (raw tails + sketch + tier buckets)."""
        total = 2 * len(self._values)
        if self._sketch is not None:
            total += self._sketch.cells + self.tiers.cells
        return total

    def mean(self) -> float:
        """Arithmetic mean of values, exact at any volume (nan when empty)."""
        if self.dropped:
            return self._sketch.mean()
        return float(np.mean(self.values)) if len(self._values) else math.nan

    def total(self) -> float:
        """Sum of values, exact at any volume (0 when empty)."""
        if self.dropped:
            return self._sketch.sum
        return float(np.sum(self.values)) if len(self._values) else 0.0

    def max(self) -> float:
        """Maximum value ever, exact at any volume (nan when empty)."""
        if self.dropped:
            return self._sketch.max
        return float(np.max(self.values)) if len(self._values) else math.nan

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of values (nan when empty); exact
        while the raw tail is complete, sketch-backed afterwards."""
        if self.dropped:
            return self._sketch.percentile(q)
        return float(np.percentile(self.values, q)) if len(self._values) else math.nan

    def last(self) -> float:
        """Most recent value (nan when empty); always exact (the ring
        keeps the newest samples)."""
        if self._values:
            return self._values[-1]
        return math.nan

    def extend(self, other: "TimeSeries") -> None:
        """Fold every sample of ``other`` in, in ``other``'s order."""
        if other._sketch is None:
            if self._sketch is None and self._max_raw is None:
                self._times.extend(other._times)
                self._values.extend(other._values)
                return
            for t, v in zip(other._times, other._values):
                self.record(t, v)
            return
        if self._sketch is None:
            self._spill()
        self._sketch.merge(other._sketch)
        self.tiers.merge(other.tiers)
        self._times.extend(other._times)
        self._values.extend(other._values)

    def reconfigure(self, max_raw: int | None = None, alpha: float | None = None,
                    resolutions: typing.Sequence[float] | None = None,
                    tier_capacity: int | None = None) -> None:
        """Re-bound the instrument (meant for empty/young instruments);
        sketch/tier shape cannot change once spilled."""
        if self._sketch is not None and any(
                v is not None for v in (alpha, resolutions, tier_capacity)):
            if ((alpha is not None and alpha != self._alpha)
                    or (resolutions is not None and tuple(resolutions) != self._resolutions)
                    or (tier_capacity is not None and tier_capacity != self._tier_capacity)):
                raise ValueError(
                    f"series {self.name!r}: cannot reshape sketch/tiers after spilling")
        if alpha is not None:
            self._alpha = alpha
        if resolutions is not None:
            self._resolutions = tuple(resolutions)
        if tier_capacity is not None:
            self._tier_capacity = tier_capacity
        self._max_raw = max_raw
        if self._sketch is None:
            if max_raw is not None and len(self._values) >= max_raw:
                self._spill()
        else:
            self._times = collections.deque(self._times, maxlen=max_raw)
            self._values = collections.deque(self._values, maxlen=max_raw)


#: plain built-in sum, aliased so ``Histogram.sum`` (a property) can use it
builtins_sum = sum


class Monitor:
    """A registry of named instruments for one simulation run.

    Keyword parameters bound new histograms/series (see
    :class:`Histogram` / :class:`TimeSeries`); :meth:`configure` changes
    them for current and future instruments in one call.
    """

    def __init__(self, *, histogram_max_raw: int | None = DEFAULT_MAX_RAW,
                 series_max_raw: int | None = DEFAULT_MAX_RAW,
                 sketch_alpha: float = DEFAULT_ALPHA,
                 series_resolutions: typing.Sequence[float] = DEFAULT_RESOLUTIONS,
                 tier_capacity: int = DEFAULT_TIER_CAPACITY) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}
        self._histogram_max_raw = histogram_max_raw
        self._series_max_raw = series_max_raw
        self._sketch_alpha = sketch_alpha
        self._series_resolutions = tuple(series_resolutions)
        self._tier_capacity = tier_capacity

    def configure(self, config=None, **overrides) -> "Monitor":
        """Apply telemetry bounds to current and future instruments.

        ``config`` is duck-typed against
        :class:`~repro.observability.sketch.TelemetryConfig` (only the
        monitor-relevant fields are read); keyword ``overrides`` win.
        Returns self.
        """
        fields = ("histogram_max_raw", "series_max_raw", "sketch_alpha",
                  "series_resolutions", "tier_capacity")
        updates: dict[str, typing.Any] = {}
        if config is not None:
            for field in fields:
                if hasattr(config, field):
                    updates[field] = getattr(config, field)
        for field, value in overrides.items():
            if field not in fields:
                raise TypeError(f"unknown telemetry field {field!r}")
            updates[field] = value
        if "series_resolutions" in updates:
            updates["series_resolutions"] = tuple(updates["series_resolutions"])
        for field, value in updates.items():
            setattr(self, f"_{field}", value)
        for histogram in self._histograms.values():
            histogram.reconfigure(max_raw=self._histogram_max_raw,
                                  alpha=self._sketch_alpha)
        for series in self._series.values():
            series.reconfigure(max_raw=self._series_max_raw,
                               alpha=self._sketch_alpha,
                               resolutions=self._series_resolutions,
                               tier_capacity=self._tier_capacity)
        return self

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        counter = self._counters.get(name)
        if counter is None:
            counter = Counter(name)
            self._counters[name] = counter
        return counter

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = Gauge(name)
            self._gauges[name] = gauge
        return gauge

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram called ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(name, max_raw=self._histogram_max_raw,
                                  alpha=self._sketch_alpha)
            self._histograms[name] = histogram
        return histogram

    def series(self, name: str) -> TimeSeries:
        """Get or create the time series called ``name``."""
        series = self._series.get(name)
        if series is None:
            series = TimeSeries(name, max_raw=self._series_max_raw,
                                alpha=self._sketch_alpha,
                                resolutions=self._series_resolutions,
                                tier_capacity=self._tier_capacity)
            self._series[name] = series
        return series

    def counters(self) -> dict[str, float]:
        """Snapshot of all counter values."""
        return {name: c.value for name, c in sorted(self._counters.items())}

    def footprint(self) -> dict[str, int]:
        """Retained telemetry cells per instrument kind, plus ``total``.

        Counts *cells* (scalar slots held), not bytes: deterministic
        across platforms and Python builds, which is what lets CI gate
        "telemetry memory stays flat" at a tight tolerance.
        """
        out = {
            "counters": 2 * len(self._counters),
            "gauges": 2 * len(self._gauges),
            "histograms": builtins_sum(h.cells for h in self._histograms.values()),
            "series": builtins_sum(s.cells for s in self._series.values()),
        }
        out["total"] = builtins_sum(out.values())
        return out

    def summary(self) -> dict[str, typing.Any]:
        """A flat summary dict, deterministically ordered.

        Per counter: its value under the bare name plus
        ``<name>.increments`` (so rates per recording can be derived);
        then gauges, histogram reductions (count/mean/p50/p95/p99/max),
        and per-series mean/total/max.  Keys are emitted in sorted order
        within each instrument kind, so two runs of the same workload
        diff cleanly.
        """
        out: dict[str, typing.Any] = {}
        for name, counter in sorted(self._counters.items()):
            out[name] = counter.value
            out[f"{name}.increments"] = counter.increments
        for name, gauge in sorted(self._gauges.items()):
            if gauge.updates:
                out[name] = gauge.value
        for name, histogram in sorted(self._histograms.items()):
            if len(histogram):
                out[f"{name}.count"] = len(histogram)
                out[f"{name}.mean"] = histogram.mean()
                out[f"{name}.p50"] = histogram.percentile(50)
                out[f"{name}.p95"] = histogram.percentile(95)
                out[f"{name}.p99"] = histogram.percentile(99)
                out[f"{name}.max"] = histogram.max()
        for name, series in sorted(self._series.items()):
            if len(series):
                out[f"{name}.mean"] = series.mean()
                out[f"{name}.total"] = series.total()
                out[f"{name}.max"] = series.max()
        return out

    def merge(self, other: "Monitor") -> "Monitor":
        """Fold ``other``'s instruments into this monitor, in place.

        Collision semantics, per instrument kind:

        * counters: values and increment counts both add;
        * gauges: last writer wins -- ``other``'s value replaces ours
          when it has been set (merging repetitions keeps the most
          recent reading);
        * histograms: observations fold in (raw concatenation while
          complete; exact sketch merges once either side has spilled);
        * time series: samples fold in, in ``other``'s order
          (repetition *i+1*'s virtual clock restarts, so callers who
          need a global axis offset times themselves).

        Merging is deterministic in the fold order, which the parallel
        trial runner fixes by seed -- serial and parallel reductions are
        bit-identical, sketches included.

        Returns ``self`` so reductions chain:
        ``Monitor().merge(a).merge(b).summary()``.
        """
        for name, counter in other._counters.items():
            mine = self.counter(name)
            mine.value += counter.value
            mine.increments += counter.increments
        for name, gauge in other._gauges.items():
            if gauge.updates:
                mine_g = self.gauge(name)
                mine_g.value = gauge.value
                mine_g.updates += gauge.updates
        for name, histogram in other._histograms.items():
            self.histogram(name).extend(histogram)
        for name, series in other._series.items():
            self.series(name).extend(series)
        return self
