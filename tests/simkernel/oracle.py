"""Reference instruments: two independent copies of the bounded store.

:class:`ReferenceHistogram` and :class:`ReferenceTimeSeries` are the
histogram and time series written out separately, each with its own
raw-list -> ring + :class:`~repro.observability.sketch.QuantileSketch`
spill, ``dropped``, reductions, ``extend`` and ``reconfigure``.  The
production :class:`~repro.simkernel.monitor.Histogram` and
:class:`~repro.simkernel.monitor.TimeSeries` share one store instead, so
tests can assert the shared store reports *exactly* what these report:
every reading, the sketch state and the cell count.
:class:`ReferenceMonitor` is a :class:`~repro.simkernel.monitor.Monitor`
whose instruments are these, for comparing ``merge``, ``summary`` and
``footprint``.
"""

from __future__ import annotations

import collections
import math

import numpy as np

from repro.observability.sketch import QuantileSketch
from repro.simkernel.monitor import DEFAULT_MAX_RAW, Monitor


class ReferenceHistogram:
    """A bounded distribution of observations with its own store."""

    def __init__(self, name, max_raw=DEFAULT_MAX_RAW):
        self.name = name
        self._values = []
        self._max_raw = max_raw
        self._sketch = None

    def observe(self, value):
        sketch = self._sketch
        if sketch is None:
            values = self._values
            values.append(value)
            if self._max_raw is not None and len(values) >= self._max_raw:
                self._spill()
            return
        sketch.observe(value)
        self._values.append(value)

    def _spill(self):
        sketch = QuantileSketch()
        for v in self._values:
            sketch.observe(v)
        self._sketch = sketch
        self._values = collections.deque(self._values, maxlen=self._max_raw)

    def __len__(self):
        return self._sketch.count if self._sketch is not None else len(self._values)

    @property
    def values(self):
        return np.fromiter(self._values, dtype=np.float64, count=len(self._values))

    @property
    def dropped(self):
        sketch = self._sketch
        return 0 if sketch is None else sketch.count - len(self._values)

    @property
    def sketch(self):
        return self._sketch

    @property
    def sum(self):
        if self._sketch is not None:
            return self._sketch.sum
        return float(sum(self._values))

    @property
    def last(self):
        if self._values:
            return self._values[-1]
        return self._sketch.last if self._sketch is not None else math.nan

    def ensure_sketch(self):
        if self._sketch is None:
            self._spill()

    @property
    def cells(self):
        return len(self._values) + (self._sketch.cells if self._sketch is not None else 0)

    def mean(self):
        if self.dropped:
            return self._sketch.mean()
        return float(np.mean(self.values)) if len(self._values) else math.nan

    def max(self):
        if self.dropped:
            return self._sketch.max
        return float(np.max(self.values)) if len(self._values) else math.nan

    def percentile(self, q):
        if self.dropped:
            return self._sketch.percentile(q)
        return float(np.percentile(self.values, q)) if len(self._values) else math.nan

    def extend(self, other):
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

    def reconfigure(self, max_raw):
        if max_raw is not None or self._max_raw is not None:
            self._max_raw = max_raw
            if self._sketch is None:
                if max_raw is not None and len(self._values) >= max_raw:
                    self._spill()
            else:
                self._values = collections.deque(self._values, maxlen=max_raw)


class ReferenceTimeSeries:
    """A bounded sequence of ``(time, value)`` samples with its own store."""

    def __init__(self, name, max_raw=DEFAULT_MAX_RAW):
        self.name = name
        self._times = []
        self._values = []
        self._max_raw = max_raw
        self._sketch = None

    def record(self, time, value):
        sketch = self._sketch
        if sketch is None:
            self._times.append(time)
            self._values.append(value)
            if self._max_raw is not None and len(self._values) >= self._max_raw:
                self._spill()
            return
        sketch.observe(value)
        self._times.append(time)
        self._values.append(value)

    def _spill(self):
        sketch = QuantileSketch()
        for v in self._values:
            sketch.observe(v)
        self._sketch = sketch
        self._times = collections.deque(self._times, maxlen=self._max_raw)
        self._values = collections.deque(self._values, maxlen=self._max_raw)

    def __len__(self):
        return self._sketch.count if self._sketch is not None else len(self._values)

    @property
    def times(self):
        return np.fromiter(self._times, dtype=np.float64, count=len(self._times))

    @property
    def values(self):
        return np.fromiter(self._values, dtype=np.float64, count=len(self._values))

    @property
    def dropped(self):
        sketch = self._sketch
        return 0 if sketch is None else sketch.count - len(self._values)

    @property
    def sketch(self):
        return self._sketch

    def ensure_sketch(self):
        if self._sketch is None:
            self._spill()

    @property
    def cells(self):
        total = 2 * len(self._values)
        if self._sketch is not None:
            total += self._sketch.cells
        return total

    def mean(self):
        if self.dropped:
            return self._sketch.mean()
        return float(np.mean(self.values)) if len(self._values) else math.nan

    def total(self):
        if self.dropped:
            return self._sketch.sum
        return float(np.sum(self.values)) if len(self._values) else 0.0

    def max(self):
        if self.dropped:
            return self._sketch.max
        return float(np.max(self.values)) if len(self._values) else math.nan

    def percentile(self, q):
        if self.dropped:
            return self._sketch.percentile(q)
        return float(np.percentile(self.values, q)) if len(self._values) else math.nan

    def last(self):
        if self._values:
            return self._values[-1]
        return math.nan

    def extend(self, other):
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
        self._times.extend(other._times)
        self._values.extend(other._values)

    def reconfigure(self, max_raw):
        self._max_raw = max_raw
        if self._sketch is None:
            if max_raw is not None and len(self._values) >= max_raw:
                self._spill()
        else:
            self._times = collections.deque(self._times, maxlen=max_raw)
            self._values = collections.deque(self._values, maxlen=max_raw)


class ReferenceMonitor(Monitor):
    """A :class:`Monitor` whose histograms and series are the references."""

    def histogram(self, name):
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = ReferenceHistogram(name, max_raw=self._histogram_max_raw)
            self._histograms[name] = histogram
        return histogram

    def series(self, name):
        series = self._series.get(name)
        if series is None:
            series = ReferenceTimeSeries(name, max_raw=self._series_max_raw)
            self._series[name] = series
        return series
