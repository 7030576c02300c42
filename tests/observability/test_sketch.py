"""QuantileSketch / MultiResolutionSeries: error bounds, exact merges,
bounded memory."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.observability.sketch import (
    BUCKET_CELLS,
    MultiResolutionSeries,
    QuantileSketch,
    TelemetryConfig,
)


def relative_error(est, true):
    return abs(est - true) / abs(true) if true else abs(est)


class TestQuantileSketch:
    def test_quantiles_within_alpha_of_exact(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
        sk = QuantileSketch(alpha=0.01)
        for v in values:
            sk.observe(v)
        for q in (1, 25, 50, 75, 95, 99, 99.9):
            # the guarantee is vs the order statistic at the rank
            # (np.percentile's default interpolates between two of them)
            exact = float(np.percentile(values, q, method="lower"))
            assert relative_error(sk.percentile(q), exact) <= 0.01

    def test_exact_scalars_ride_along(self):
        sk = QuantileSketch()
        for v in (3.0, -1.5, 0.0, 8.25):
            sk.observe(v)
        assert sk.count == 4
        assert sk.sum == pytest.approx(9.75)
        assert sk.min == -1.5 and sk.max == 8.25 and sk.last == 8.25
        assert sk.mean() == pytest.approx(9.75 / 4)

    def test_zero_and_negative_values(self):
        sk = QuantileSketch(alpha=0.01)
        for v in (-100.0, -10.0, 0.0, 0.0, 10.0, 100.0):
            sk.observe(v)
        assert sk.quantile(0.0) == -100.0  # clamped to exact min
        assert sk.quantile(1.0) == 100.0  # clamped to exact max
        assert sk.quantile(0.5) == 0.0  # median falls in the zero bucket

    def test_empty_sketch_is_nan(self):
        sk = QuantileSketch()
        assert math.isnan(sk.quantile(0.5))
        assert math.isnan(sk.mean())
        assert len(sk) == 0

    def test_merge_equals_sketch_of_union(self):
        """The property the parallel reduction relies on: merging the
        parts is bit-identical to sketching the whole stream."""
        rng = random.Random(3)
        parts = [[rng.expovariate(0.2) for _ in range(400)] for _ in range(4)]
        merged = QuantileSketch()
        for part in parts:
            piece = QuantileSketch()
            for v in part:
                piece.observe(v)
            merged.merge(piece)
        whole = QuantileSketch()
        for part in parts:
            for v in part:
                whole.observe(v)
        ms, ws = merged.state(), whole.state()
        # buckets, counts and extremes are exact integer/compare ops;
        # only the running float sum depends on addition order
        assert ms[:2] == ws[:2]
        assert ms[2] == pytest.approx(ws[2], rel=1e-12)
        assert ms[3:] == ws[3:]

    def test_merge_order_is_deterministic(self):
        """What the parallel runner actually needs: the same pieces
        merged in the same (seed) order give bit-identical state."""
        rng = random.Random(9)
        parts = [[rng.expovariate(1.0) for _ in range(100)] for _ in range(3)]
        pieces = []
        for part in parts:
            piece = QuantileSketch()
            for v in part:
                piece.observe(v)
            pieces.append(piece)
        a, b = QuantileSketch(), QuantileSketch()
        for piece in pieces:
            a.merge(piece)
        for piece in pieces:
            b.merge(piece)
        assert a.state() == b.state()

    def test_merge_rejects_mismatched_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            QuantileSketch(alpha=0.01).merge(QuantileSketch(alpha=0.05))

    def test_diff_recovers_the_delta(self):
        sk = QuantileSketch()
        for v in (1.0, 2.0, 3.0):
            sk.observe(v)
        snap = sk.copy()
        for v in (50.0, 60.0):
            sk.observe(v)
        delta = sk.diff(snap)
        assert delta.count == 2
        assert delta.sum == pytest.approx(110.0)
        # delta extremes are bucket-midpoint approximations
        assert relative_error(delta.min, 50.0) <= delta.alpha
        assert relative_error(delta.max, 60.0) <= delta.alpha
        assert sk.diff(None).state() == sk.state()

    def test_diff_rejects_foreign_snapshot(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.observe(1.0)
        b.observe(1000.0)
        b.observe(2000.0)
        with pytest.raises(ValueError, match="older snapshot"):
            a.diff(b)

    def test_memory_is_bounded_by_distinct_buckets(self):
        sk = QuantileSketch(alpha=0.01)
        rng = random.Random(11)
        for _ in range(100_000):
            sk.observe(rng.uniform(1e-3, 1e6))
        # nine decades at alpha=0.01 is ~1040 buckets, not 100k values
        assert sk.cells < 1100

    def test_round_trips_through_dict(self):
        sk = QuantileSketch(alpha=0.02)
        for v in (-4.0, 0.0, 7.5, 7.5):
            sk.observe(v)
        assert QuantileSketch.from_dict(sk.to_dict()).state() == sk.state()


class TestMultiResolutionSeries:
    def test_buckets_aggregate_per_tier(self):
        mrs = MultiResolutionSeries(resolutions=(1.0, 10.0), capacity=240)
        for t, v in ((0.2, 1.0), (0.8, 3.0), (1.5, 5.0), (12.0, 7.0)):
            mrs.record(t, v)
        fine = mrs.samples(1.0)
        assert fine[0] == (0.0, 2, 4.0, 1.0, 3.0, 3.0)
        assert fine[1] == (0.0 + 1.0, 1, 5.0, 5.0, 5.0, 5.0)
        coarse = mrs.samples(10.0)
        assert coarse[0] == (0.0, 3, 9.0, 1.0, 5.0, 5.0)
        assert coarse[1] == (10.0, 1, 7.0, 7.0, 7.0, 7.0)

    def test_eviction_keeps_memory_flat(self):
        mrs = MultiResolutionSeries(resolutions=(1.0,), capacity=4)
        for t in range(100):
            mrs.record(float(t), 1.0)
        assert len(mrs) == 4
        assert mrs.evictions == 96
        assert mrs.cells == 4 * BUCKET_CELLS
        # only the most recent capacity*resolution seconds survive
        assert [row[0] for row in mrs.samples()] == [96.0, 97.0, 98.0, 99.0]

    def test_late_samples_drop_once_bucket_evicted(self):
        mrs = MultiResolutionSeries(resolutions=(1.0,), capacity=4)
        for t in range(10):
            mrs.record(float(t), 1.0)
        mrs.record(0.5, 9.0)  # bucket 0 is long gone
        assert mrs.late_drops == 1
        mrs.record(7.5, 9.0)  # bucket 7 is still retained
        assert mrs.late_drops == 1
        assert [row[0] for row in mrs.samples()] == [6.0, 7.0, 8.0, 9.0]

    def test_merge_folds_tier_buckets(self):
        a = MultiResolutionSeries(resolutions=(1.0,), capacity=240)
        b = MultiResolutionSeries(resolutions=(1.0,), capacity=240)
        a.record(0.5, 1.0)
        a.record(2.5, 2.0)
        b.record(0.7, 3.0)
        b.record(1.5, 4.0)
        a.merge(b)
        assert a.samples() == [(0.0, 2, 4.0, 1.0, 3.0, 3.0),
                               (1.0, 1, 4.0, 4.0, 4.0, 4.0),
                               (2.0, 1, 2.0, 2.0, 2.0, 2.0)]

    def test_merge_rejects_mismatched_resolutions(self):
        a = MultiResolutionSeries(resolutions=(1.0,))
        b = MultiResolutionSeries(resolutions=(2.0,))
        with pytest.raises(ValueError, match="resolutions"):
            a.merge(b)

    def test_validates_construction(self):
        with pytest.raises(ValueError):
            MultiResolutionSeries(resolutions=())
        with pytest.raises(ValueError):
            MultiResolutionSeries(resolutions=(10.0, 1.0))
        with pytest.raises(ValueError):
            MultiResolutionSeries(capacity=0)


def chunked(items, cuts):
    """``items`` split at the (sorted, clipped) ``cuts``."""
    edges = [0] + sorted(min(c, len(items)) for c in cuts) + [len(items)]
    return [items[a:b] for a, b in zip(edges, edges[1:])]


finite = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)),
                   st.floats(-1e9, 1e9, allow_nan=False, allow_subnormal=False))
cuts = st.lists(st.integers(0, 40), max_size=5)


class TestBatchFolds:
    """``observe_many`` / ``record_many`` are the one recording path of
    each structure: any split of a stream into batches gives exactly the
    state of recording it one value at a time."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite, max_size=40), cuts)
    def test_sketch_batches_equal_single_observations(self, values, cut):
        one, batched = QuantileSketch(), QuantileSketch()
        for v in values:
            one.observe(v)
        for chunk in chunked(values, cut):
            batched.observe_many(chunk)
        assert batched.state() == one.state()

    def test_an_unbucketable_value_stops_the_batch_where_singles_stop(self):
        one, batched = QuantileSketch(), QuantileSketch()
        values = [2.0, -3.0, math.inf, 5.0]
        with pytest.raises(ValueError):
            for v in values:
                one.observe(v)
        with pytest.raises(ValueError):
            batched.observe_many(values)
        assert repr(batched.state()) == repr(one.state())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_value_is_rejected_and_leaves_the_sketch_as_it_was(self, bad):
        sk, want = QuantileSketch(), QuantileSketch()
        sk.observe(1.0)
        want.observe_many([1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            sk.observe(bad)
        with pytest.raises(ValueError, match="finite"):
            sk.observe_many([2.0, bad, 3.0])
        assert repr(sk.state()) == repr(want.state())
        assert sk.mean() == 1.5

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 60.0), finite), max_size=40), cuts,
           st.integers(1, 4))
    def test_series_batches_equal_single_records(self, samples, cut, capacity):
        # small rings and unordered times: evictions and late drops happen
        one = MultiResolutionSeries(resolutions=(1.0, 5.0), capacity=capacity)
        batched = MultiResolutionSeries(resolutions=(1.0, 5.0), capacity=capacity)
        for t, v in samples:
            one.record(t, v)
        for chunk in chunked(samples, cut):
            batched.record_many([t for t, _ in chunk], [v for _, v in chunk])
        for res in (1.0, 5.0):
            assert batched.samples(res) == one.samples(res)
        assert (batched.evictions, batched.late_drops) == (one.evictions, one.late_drops)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_time_rejects_the_whole_batch(self, bad):
        mrs = MultiResolutionSeries()
        mrs.record(0.5, 1.0)
        before = [mrs.samples(r) for r in mrs.resolutions]
        with pytest.raises(ValueError, match="finite"):
            mrs.record_many([1.5, bad, 2.5], [1.0, 2.0, 3.0])
        assert [mrs.samples(r) for r in mrs.resolutions] == before


class TestTelemetryConfig:
    def test_defaults_are_valid(self):
        cfg = TelemetryConfig()
        assert cfg.histogram_max_raw == 1024
        assert cfg.max_trace_records is None

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TelemetryConfig(histogram_max_raw=0)
        with pytest.raises(ValueError):
            TelemetryConfig(max_trace_records=0)
