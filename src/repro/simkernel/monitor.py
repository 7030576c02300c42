"""Statistics collection for simulation runs.

:class:`Monitor` aggregates named :class:`Counter`, :class:`Gauge`,
:class:`Histogram` and :class:`TimeSeries` instruments.  Instruments are
cheap to record into (append / scalar assignment) and reduce to summary
statistics only on demand, so instrumentation does not distort
timing-sensitive benchmarks.

Memory bounds
-------------
Histograms and time series are *bounded* and share one store: each
retains an exact raw tail of the newest ``max_raw`` observations
(default 1024; a series keeps the sample times beside the values) and,
once the tail would overflow, spills into a mergeable
:class:`~repro.observability.sketch.QuantileSketch` of the values at
the fixed 1% relative error of ``sketch.DEFAULT_ALPHA``.  While nothing
has been dropped every reduction is exact -- bit-identical to the
historical raw-list behavior; past the cap, counts/means/extremes stay
exact (streamed scalars) and percentiles come from the sketch.
``max_raw=None`` restores unbounded raw retention.

Past the spill a record only appends to the ring; the sketch catches
up in one fold, in recording order, when the ring holds only values it
has not seen (once per ``max_raw`` records), and every read (``len``,
``dropped``, ``sketch``, ``cells``, the reductions,
``extend``/:meth:`Monitor.merge`, ``reconfigure``, pickling) folds the
rest first.  No reading can tell when a value was folded, and the
memory bound is unchanged: the unfolded values are the ring's own
newest entries.  Non-finite values (and series times) are rejected at
the call, before anything changes.

:meth:`Monitor.configure` applies a
:class:`~repro.observability.sketch.TelemetryConfig`'s two raw-tail caps
to every current and future instrument; :meth:`Monitor.footprint`
reports retained cells (the deterministic memory accounting the E14
benchmark gates on).

Naming conventions for instruments live in
:mod:`repro.observability.metrics` (``<subsystem>.<noun>[_<unit>]``);
:meth:`Monitor.merge` combines monitors across benchmark repetitions --
sketch merges are exact integer bucket addition, so the parallel trial
runner's seed-ordered reduction stays bit-identical at any worker count.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
import typing

import numpy as np

from repro import checks

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observability.sketch import TelemetryConfig

#: Default exact-raw-tail length for histograms and time series.
DEFAULT_MAX_RAW = 1024

# bound once for the Histogram.observe / TimeSeries.record hot paths
_isfinite = math.isfinite


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

    def add_repeated(self, amount: float, times: int) -> None:
        """``times`` calls of ``add(amount)`` in one: ``times`` sequential
        float additions, so the value is bit-identical to theirs (one
        ``add(amount * times)`` rounds differently).  ``times`` is an
        ``int`` >= 0; ``amount`` must be finite even when ``times`` is 0."""
        if not math.isfinite(amount):
            raise ValueError(f"counter {self.name!r}: amount must be finite, got {amount!r}")
        if type(times) is not int or times < 0:
            raise ValueError(f"counter {self.name!r}: times must be an int >= 0, got {times!r}")
        value = self.value
        for _ in range(times):
            value += amount
        self.value = value
        self.increments += times

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


def _newest(ring: typing.Sequence[float], n: int) -> typing.Sequence[float]:
    """The newest ``n`` entries of ``ring``, oldest first, in O(n)."""
    if n == len(ring):
        return ring
    tail = list(itertools.islice(reversed(ring), n))
    tail.reverse()
    return tail


class _SampleStore:
    """The bounded raw-tail store behind :class:`Histogram` and :class:`TimeSeries`.

    Observations are buffered raw in a Python list until ``max_raw``
    would be exceeded, then *spilled*: the raw buffer becomes a ring of
    the newest ``max_raw`` values and a :class:`QuantileSketch` carries
    the full distribution forever.  While :attr:`dropped` is 0 every
    reduction is exact over the raw values (the historical behavior);
    afterwards count/mean/max stay exact and :meth:`percentile` answers
    from the sketch within its relative-error bound.

    After the spill a record only appends to the ring and counts the
    values not yet folded into the sketch.  When the ring holds nothing
    else (the next record would drop an unfolded value), they are folded
    in one call, in recording order; every read folds the rest first, so
    no reading can tell when a value was folded.  Each subclass supplies
    its record path and ``_replay``, which feeds another store's raw
    entries through it.
    """

    __slots__ = ("name", "_values", "_max_raw", "_sketch", "_unfolded")

    def __init__(self, name: str, max_raw: int | None = DEFAULT_MAX_RAW) -> None:
        self.name = name
        self._values: typing.MutableSequence[float] = []
        self._max_raw = None if max_raw is None else checks.count("max_raw", max_raw, 1)
        self._sketch = None
        self._unfolded = 0  # the newest raw entries the sketch has not seen

    def _spill(self) -> None:
        """Switch to sketch-backed mode, folding the raw buffer in.

        A reconfigure-shrink spills with more raw values than the new
        cap; the truncated oldest ones count as dropped.
        """
        self._sketch = _sketch_module().QuantileSketch()
        self._unfolded = len(self._values)
        self._catch_up()
        self._ring()

    def _ring(self) -> None:
        """Keep the newest ``max_raw`` raw entries, as a ring."""
        self._values = collections.deque(self._values, maxlen=self._max_raw)

    def _catch_up(self) -> None:
        """Fold the unfolded raw entries in (O(unfolded), not O(ring))."""
        n = self._unfolded
        if n:
            self._unfolded = 0
            self._sketch.observe_many(_newest(self._values, n))

    def __getstate__(self) -> tuple[None, dict[str, typing.Any]]:
        # a pickled instrument travels caught up, its slots as pickle's
        # default (no __dict__, slot state) form
        self._catch_up()
        return None, {name: getattr(self, name) for cls in type(self).__mro__
                      for name in cls.__dict__.get("__slots__", ())}

    def __len__(self) -> int:
        sketch = self.sketch
        return sketch.count if sketch is not None else len(self._values)

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
        sketch = self.sketch
        return 0 if sketch is None else sketch.count - len(self._values)

    @property
    def sketch(self):
        """The value-distribution :class:`QuantileSketch` (None until
        spilled), caught up with every observation."""
        self._catch_up()
        return self._sketch

    @property
    def cells(self) -> int:
        """Retained storage cells (raw tail + sketch buckets)."""
        sketch = self.sketch
        return len(self._values) + (sketch.cells if sketch is not None else 0)

    def ensure_sketch(self) -> None:
        """Materialize the sketch now (idempotent).

        The SLO evaluator calls this on watched instruments so sketch
        deltas are available from its first tick, before any drop.
        """
        if self._sketch is None:
            self._spill()

    def raw_after(self, seen: int) -> typing.Iterator | None:
        """The raw entries recorded after the first ``seen`` observations,
        oldest first, or None when some of them have left the raw tail."""
        skip = seen - len(self) + len(self._values)
        return None if skip < 0 else itertools.islice(self._rows(), skip, None)

    def _rows(self) -> typing.Iterable:
        return self._values

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
        complete; from the sketch -- within its relative error -- once
        observations have been dropped.
        """
        if self.dropped:
            return self._sketch.percentile(q)
        return float(np.percentile(self.values, q)) if len(self._values) else math.nan

    def extend(self, other: "_SampleStore") -> None:
        """Fold every observation of ``other`` in, in ``other``'s order
        (sketches merge exactly)."""
        self._catch_up()
        other._catch_up()
        if other._sketch is None:
            if self._sketch is None and self._max_raw is None:
                self._extend_raw(other)
            else:
                self._replay(other)
            return
        self.ensure_sketch()
        self._sketch.merge(other._sketch)
        self._extend_raw(other)

    def _extend_raw(self, other: "_SampleStore") -> None:
        self._values.extend(other._values)

    def reconfigure(self, max_raw: int | None) -> None:
        """Re-cap the raw tail (meant for empty/young instruments).

        Shrinking ``max_raw`` below the current buffer spills and trims
        the oldest values.
        """
        if max_raw is not None:
            checks.count("max_raw", max_raw, 1)
        self._catch_up()
        self._max_raw = max_raw
        if self._sketch is not None:
            self._ring()
        elif max_raw is not None and len(self._values) >= max_raw:
            self._spill()


class Histogram(_SampleStore):
    """A bounded distribution of observations (latencies, sizes)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Record one observation (finite; anything else raises
        ``ValueError`` and records nothing)."""
        if not _isfinite(value):
            raise ValueError(f"histogram {self.name!r}: value must be finite, got {value!r}")
        values = self._values
        values.append(value)  # a full ring drops its oldest value
        if self._sketch is not None:
            self._unfolded += 1
            if self._unfolded == self._max_raw:
                self._catch_up()
        elif self._max_raw is not None and len(values) >= self._max_raw:
            self._spill()

    def _replay(self, other: "Histogram") -> None:
        for v in other._values:
            self.observe(v)

    @property
    def sum(self) -> float:
        """Exact sum of all observations ever recorded."""
        sketch = self.sketch
        if sketch is not None:
            return sketch.sum
        return float(builtins_sum(self._values))

    @property
    def last(self) -> float:
        """Most recent observation (nan when empty)."""
        return self._values[-1] if self._values else math.nan


class TimeSeries(_SampleStore):
    """A bounded sequence of ``(time, value)`` samples.

    Provides summary reductions used throughout the experiment harness.
    Sample times are buffered raw beside the values (HPC guide:
    vectorize reductions, keep the recording path allocation-free in the
    common case); on spill both buffers become rings and the sketch
    carries the value distribution.
    """

    __slots__ = ("_times",)

    def __init__(self, name: str, max_raw: int | None = DEFAULT_MAX_RAW) -> None:
        super().__init__(name, max_raw)
        self._times: typing.MutableSequence[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample (finite time and value; anything else
        raises ``ValueError`` and records nothing)."""
        if not (_isfinite(time) and _isfinite(value)):
            raise ValueError(f"series {self.name!r}: time and value must be finite, "
                             f"got ({time!r}, {value!r})")
        # full rings drop their oldest sample
        self._times.append(time)
        values = self._values
        values.append(value)
        if self._sketch is not None:
            self._unfolded += 1
            if self._unfolded == self._max_raw:
                self._catch_up()
        elif self._max_raw is not None and len(values) >= self._max_raw:
            self._spill()

    def _ring(self) -> None:
        super()._ring()
        self._times = collections.deque(self._times, maxlen=self._max_raw)

    def _rows(self) -> typing.Iterable:
        return zip(self._times, self._values)

    def _replay(self, other: "TimeSeries") -> None:
        for t, v in other._rows():
            self.record(t, v)

    def _extend_raw(self, other: "TimeSeries") -> None:
        super()._extend_raw(other)
        self._times.extend(other._times)

    @property
    def cells(self) -> int:
        """Retained storage cells (value and time rings + sketch buckets)."""
        return super().cells + len(self._times)

    @property
    def times(self) -> np.ndarray:
        """Retained sample times as a float64 array (copy)."""
        return np.fromiter(self._times, dtype=np.float64, count=len(self._times))

    def total(self) -> float:
        """Sum of values, exact at any volume (0 when empty)."""
        if self.dropped:
            return self._sketch.sum
        return float(np.sum(self.values)) if len(self._values) else 0.0

    def last(self) -> float:
        """Most recent value (nan when empty); always exact (the ring
        keeps the newest samples)."""
        return self._values[-1] if self._values else math.nan


#: plain built-in sum, aliased so ``Histogram.sum`` (a property) can use it
builtins_sum = sum


class Monitor:
    """A registry of named instruments for one simulation run.

    New histograms and series keep a raw tail of :data:`DEFAULT_MAX_RAW`
    observations; :meth:`configure` re-bounds current and future ones.
    A spilled instrument folds its newest records into its sketch a full
    ring at a time, and every read (:meth:`summary`,
    :meth:`footprint`, :meth:`merge`, pickling) folds the rest first, so
    readings and the retained-cell bound are those of folding each
    record at once.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}
        self._histogram_max_raw: int | None = DEFAULT_MAX_RAW
        self._series_max_raw: int | None = DEFAULT_MAX_RAW

    def configure(self, config: TelemetryConfig) -> "Monitor":
        """Apply a :class:`~repro.observability.sketch.TelemetryConfig`'s
        raw-tail caps to current and future instruments; returns self."""
        self._histogram_max_raw = config.histogram_max_raw
        self._series_max_raw = config.series_max_raw
        for histogram in self._histograms.values():
            histogram.reconfigure(self._histogram_max_raw)
        for series in self._series.values():
            series.reconfigure(self._series_max_raw)
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
            histogram = Histogram(name, max_raw=self._histogram_max_raw)
            self._histograms[name] = histogram
        return histogram

    def series(self, name: str) -> TimeSeries:
        """Get or create the time series called ``name``."""
        series = self._series.get(name)
        if series is None:
            series = TimeSeries(name, max_raw=self._series_max_raw)
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
