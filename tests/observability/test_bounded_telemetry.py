"""Bounded monitor instruments: lazy sketch spill, rings, configure,
footprint, and the SLO engine over sketch-backed windows."""

import math
import pickle
import random

import numpy as np
import pytest

from repro.observability.sketch import QuantileSketch, TelemetryConfig
from repro.observability.slo import SLO, Signal, SLOEvaluator
from repro.simkernel import Monitor, Simulator
from repro.simkernel.monitor import Histogram, TimeSeries

CAP_8 = TelemetryConfig(histogram_max_raw=8, series_max_raw=8)


class TestHistogramSpill:
    def test_exact_until_the_cap(self):
        h = Histogram("h", max_raw=10)
        for v in range(1, 10):
            h.observe(float(v))
        assert h.dropped == 0 and h.sketch is None
        assert h.percentile(50) == float(np.percentile(h.values, 50))

    def test_spills_to_ring_plus_sketch_past_the_cap(self):
        h = Histogram("h", max_raw=8)
        rng = random.Random(1)
        values = [rng.expovariate(0.5) for _ in range(500)]
        for v in values:
            h.observe(v)
        assert len(h) == 500  # logical count survives
        assert len(h.values) == 8  # raw ring holds the newest 8
        assert list(h.values) == pytest.approx(values[-8:])
        assert h.dropped == 500 - 8
        # exact scalars ride on the sketch
        assert h.sum == pytest.approx(sum(values))
        assert h.mean() == pytest.approx(np.mean(values))
        assert h.max() == max(values)
        assert h.last == values[-1]
        # percentiles within the sketch's relative error
        exact = float(np.percentile(values, 95, method="lower"))
        assert abs(h.percentile(95) - exact) <= 0.011 * exact

    def test_unlimited_cap_never_spills(self):
        h = Histogram("h", max_raw=None)
        for v in range(5000):
            h.observe(float(v))
        assert h.dropped == 0 and h.sketch is None
        assert len(h.values) == 5000

    def test_extend_all_state_combinations(self):
        rng = random.Random(2)
        a_vals = [rng.uniform(0, 10) for _ in range(30)]
        b_vals = [rng.uniform(0, 10) for _ in range(30)]
        for cap_a, cap_b in ((None, None), (8, None), (None, 8), (8, 8)):
            a = Histogram("a", max_raw=cap_a)
            b = Histogram("b", max_raw=cap_b)
            for v in a_vals:
                a.observe(v)
            for v in b_vals:
                b.observe(v)
            a.extend(b)
            assert len(a) == 60
            assert a.sum == pytest.approx(sum(a_vals) + sum(b_vals))
            assert a.max() == max(a_vals + b_vals)

    def test_reconfigure_shrink_spills_and_trims(self):
        h = Histogram("h", max_raw=None)
        for v in range(20):
            h.observe(float(v))
        h.reconfigure(max_raw=4)
        assert len(h.values) == 4 and h.dropped == 16
        assert len(h) == 20

    def test_rejects_max_raw_below_one(self):
        for make in (Histogram, TimeSeries):
            with pytest.raises(ValueError, match="max_raw"):
                make("x", max_raw=0)
            store = make("x", max_raw=None)
            with pytest.raises(ValueError, match="max_raw"):
                store.reconfigure(max_raw=0)


class TestTimeSeriesSpill:
    def test_spill_keeps_rings_and_sketch(self):
        s = TimeSeries("s", max_raw=8)
        for t in range(100):
            s.record(float(t), float(t % 7))
        assert s.dropped == 100 - 8
        assert len(s) == 100
        # the sketch covers the whole stream, the rings the tail
        assert s.sketch.count == 100
        assert list(s.times) == [float(t) for t in range(92, 100)]
        assert s.last() == float(99 % 7)
        assert s.total() == pytest.approx(sum(float(t % 7) for t in range(100)))
        # the value ring, the time ring and the sketch buckets: nothing else
        assert s.cells == len(s.values) + len(s.times) + s.sketch.cells

    def test_extend_merges_sketches(self):
        a = TimeSeries("a", max_raw=4)
        b = TimeSeries("b", max_raw=4)
        for t in range(20):
            a.record(float(t), 1.0)
            b.record(float(t), 3.0)
        a.extend(b)
        assert len(a) == 40
        assert a.total() == pytest.approx(20 * 1.0 + 20 * 3.0)
        assert a.max() == 3.0
        assert a.cells == 4 + 4 + a.sketch.cells


def state_of(inst, series):
    """An instrument's full reading, through pickling (which folds)."""
    out = [len(inst), inst.values.tolist(), inst.dropped, inst.cells,
           None if inst.sketch is None else inst.sketch.state()]
    if series:
        out += [inst.times.tolist(), inst.last(), inst.total()]
    else:
        out += [inst.last, inst.sum]
    return repr(out)


class TestNonFiniteTelemetry:
    """A non-finite value (or series time) raises at the call, naming the
    instrument, before anything changes -- raw, spilled or unbounded."""

    BAD = (math.nan, math.inf, -math.inf)

    @pytest.mark.parametrize("cap, n", [(None, 5), (4, 3), (4, 5), (4, 11)])
    @pytest.mark.parametrize("bad", BAD)
    def test_histogram_rejects_and_keeps_its_state(self, cap, n, bad):
        h = Histogram("lat", max_raw=cap)
        for v in range(n):
            h.observe(float(v))
        before = state_of(pickle.loads(pickle.dumps(h)), series=False)
        with pytest.raises(ValueError, match="histogram 'lat'"):
            h.observe(bad)
        assert state_of(h, series=False) == before
        h.observe(7.0)  # still records normally
        assert len(h) == n + 1 and h.last == 7.0

    @pytest.mark.parametrize("cap, n", [(None, 5), (4, 3), (4, 5), (4, 11)])
    @pytest.mark.parametrize("time, value", [(1.0, bad) for bad in BAD] + [(bad, 1.0) for bad in BAD])
    def test_series_rejects_and_keeps_its_state(self, cap, n, time, value):
        s = TimeSeries("depth", max_raw=cap)
        for t in range(n):
            s.record(float(t), float(t))
        before = state_of(pickle.loads(pickle.dumps(s)), series=True)
        with pytest.raises(ValueError, match="series 'depth'"):
            s.record(time, value)
        assert state_of(s, series=True) == before


class TestDeferredFold:
    """Past the spill a record only appends; the sketch catches up a full
    ring at a time or at a read, and a fold costs O(unfolded)."""

    def counting_folds(self, monkeypatch):
        folded = []
        real = QuantileSketch.observe_many

        def counted(self, values):
            values = list(values)
            folded.append(("observe_many", len(values)))
            real(self, values)

        monkeypatch.setattr(QuantileSketch, "observe_many", counted)
        return folded

    def test_a_full_ring_folds_in_one_call(self, monkeypatch):
        folded = self.counting_folds(monkeypatch)
        s = TimeSeries("s", max_raw=4)
        for t in range(4 + 3 * 4):
            s.record(float(t), 1.0)
        # the spill, then one fold per ring of unfolded samples
        assert folded == [("observe_many", 4)] * 4

    @pytest.mark.parametrize("cap", [None, 64])
    def test_a_read_folds_only_the_unfolded_tail(self, monkeypatch, cap):
        h = Histogram("h", max_raw=cap)
        for v in range(1_000):
            h.observe(float(v))
        h.ensure_sketch()
        assert len(h) == 1_000  # a read: everything so far is folded
        folded = self.counting_folds(monkeypatch)
        for v in range(3):
            h.observe(-float(v))
        assert h.sketch.count == 1_003
        assert h.sketch.last == -2.0
        assert folded == [("observe_many", 3)]
        assert len(h) == 1_003 and folded == [("observe_many", 3)]

    def test_pickling_folds_first(self):
        h = Histogram("h", max_raw=8)
        for v in range(11):
            h.observe(float(v))
        copy = pickle.loads(pickle.dumps(h))
        assert copy.sketch.count == 11
        assert state_of(copy, series=False) == state_of(h, series=False)


class TestMonitorConfigureAndFootprint:
    def test_configure_applies_telemetry_config(self):
        m = Monitor()
        m.histogram("h").observe(1.0)
        m.configure(TelemetryConfig(histogram_max_raw=4, series_max_raw=4))
        for v in range(10):
            m.histogram("h").observe(float(v))
        assert m.histogram("h").dropped > 0
        assert m.series("s")._max_raw == 4  # new instruments get the cap

    def test_footprint_saturates_under_load(self):
        m = Monitor().configure(TelemetryConfig(histogram_max_raw=32, series_max_raw=32))
        def load(n):
            for v in range(n):
                m.histogram("lat").observe(float(v))
                m.series("depth").record(float(v), float(v))
        load(20_000)
        at_20k = m.footprint()["total"]
        load(20_000)  # double the volume
        at_40k = m.footprint()["total"]
        # the rings are saturated; only the sketch's bucket count still
        # creeps (logarithmically in the value range)
        assert at_40k <= at_20k * 1.05

    def test_summary_emits_p95_and_p99(self):
        m = Monitor()
        for v in range(1, 101):
            m.histogram("q.lat").observe(float(v))
        summary = m.summary()
        assert summary["q.lat.p95"] == pytest.approx(
            float(np.percentile(np.arange(1.0, 101.0), 95)))
        assert "q.lat.p99" in summary
        assert summary["q.lat.p99"] >= summary["q.lat.p95"]

    def test_merge_identical_after_spill(self):
        def build():
            m = Monitor().configure(CAP_8)
            for v in range(100):
                m.histogram("h").observe(float(v))
                m.series("s").record(float(v), float(v))
            return m
        merged_ab = Monitor().configure(CAP_8)
        merged_ab.merge(build()).merge(build())
        merged_cd = Monitor().configure(CAP_8)
        merged_cd.merge(build()).merge(build())
        assert merged_ab.summary() == merged_cd.summary()
        merged_ab.histogram("h").ensure_sketch()
        merged_cd.histogram("h").ensure_sketch()
        assert (merged_ab.histogram("h").sketch.state()
                == merged_cd.histogram("h").sketch.state())


class TestSLOOverSketches:
    def setup_method(self):
        self.sim = Simulator()
        self.monitor = Monitor().configure(
            TelemetryConfig(histogram_max_raw=16, series_max_raw=16))

    def advance(self, dt):
        self.sim.schedule(dt, lambda: None)
        self.sim.run()

    def test_percentile_signal_within_alpha_when_window_outran_the_ring(self):
        slo = SLO("q.p95", "p95 latency", Signal("percentile", "q.lat", q=95.0),
                  10.0, window_s=300.0)
        ev = SLOEvaluator(self.sim, self.monitor, [slo])
        rng = random.Random(3)
        values = []
        for _ in range(5):
            for _ in range(100):  # 500 total >> the 16-sample ring
                v = rng.expovariate(1.0)
                values.append(v)
                self.monitor.histogram("q.lat").observe(v)
            self.advance(10.0)
            ev.tick()
        got = ev.status["q.p95"].value
        exact = float(np.percentile(values, 95, method="lower"))
        assert abs(got - exact) <= 0.02 * exact

    def test_mean_signal_exact_from_aggregate_entries(self):
        slo = SLO("x.mean", "level", Signal("mean", "x.level"), 100.0,
                  window_s=300.0)
        ev = SLOEvaluator(self.sim, self.monitor, [slo])
        total, count = 0.0, 0
        for tick in range(4):
            for i in range(50):
                v = float(tick * 50 + i)
                total, count = total + v, count + 1
                self.monitor.series("x.level").record(self.sim.now, v)
            self.advance(10.0)
            ev.tick()
        assert ev.status["x.mean"].value == pytest.approx(total / count)
