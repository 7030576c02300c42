"""Unit tests for random streams and monitors."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.simkernel import RandomStreams, Monitor


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(1)
        assert streams.get("x") is streams.get("x")

    def test_same_seed_same_sequence(self):
        a = RandomStreams(123).get("mobility").random(5)
        b = RandomStreams(123).get("mobility").random(5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        streams = RandomStreams(123)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomStreams(1).get("x").random(5)
        b = RandomStreams(2).get("x").random(5)
        assert not np.array_equal(a, b)

    def test_new_stream_does_not_perturb_existing(self):
        """Key reproducibility property: creating a new named stream never
        changes the draws of an existing stream."""
        s1 = RandomStreams(7)
        first = s1.get("alpha").random(3)

        s2 = RandomStreams(7)
        s2.get("unrelated").random(100)
        second = s2.get("alpha").random(3)
        assert np.array_equal(first, second)

    def test_spawn_is_deterministic(self):
        a = RandomStreams(5).spawn("child").get("x").random(4)
        b = RandomStreams(5).spawn("child").get("x").random(4)
        assert np.array_equal(a, b)

    def test_spawn_differs_from_parent(self):
        parent = RandomStreams(5)
        child = parent.spawn("child")
        assert not np.array_equal(parent.get("x").random(4), child.get("x").random(4))

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    def test_get_reproducible_property(self, seed, name):
        a = RandomStreams(seed).get(name).integers(0, 1 << 30)
        b = RandomStreams(seed).get(name).integers(0, 1 << 30)
        assert a == b


class TestMonitor:
    def test_counter_accumulates(self):
        mon = Monitor()
        c = mon.counter("msgs")
        c.add()
        c.add(2.5)
        assert c.value == 3.5
        assert c.increments == 2

    def test_counter_identity(self):
        mon = Monitor()
        assert mon.counter("x") is mon.counter("x")

    def test_counter_reset(self):
        mon = Monitor()
        c = mon.counter("x")
        c.add(10)
        c.reset()
        assert c.value == 0.0
        assert c.increments == 0

    def test_counter_rejects_non_finite(self):
        import math

        mon = Monitor()
        c = mon.counter("x")
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                c.add(bad)
        # a rejected add must not poison the counter
        assert c.value == 0.0
        assert c.increments == 0

    @pytest.mark.parametrize("times", [0, 1, 7, 40])
    def test_add_repeated_equals_repeated_add(self, times):
        one, many = Monitor().counter("a"), Monitor().counter("b")
        for c in (one, many):
            c.add(3.56e-5)
        for _ in range(times):
            one.add(1.28e-5)
        many.add_repeated(1.28e-5, times)
        assert (many.value, many.increments) == (one.value, one.increments)

    def test_add_repeated_is_not_one_scaled_add(self):
        c = Monitor().counter("x")
        c.add_repeated(0.1, 10)
        assert c.value == 0.9999999999999999 != 0.1 * 10

    @pytest.mark.parametrize("amount, times", [
        (math.nan, 1), (math.inf, 0), (1.0, -1), (1.0, True), (1.0, 2.0),
        (1.0, np.int64(2)),
    ])
    def test_add_repeated_rejects(self, amount, times):
        """A non-finite amount (even zero times), or a count that is not a
        plain int >= 0, raises and leaves the counter unchanged."""
        c = Monitor().counter("x")
        with pytest.raises(ValueError):
            c.add_repeated(amount, times)
        assert (c.value, c.increments) == (0.0, 0)

    def test_series_reductions(self):
        mon = Monitor()
        s = mon.series("latency")
        for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]:
            s.record(t, v)
        assert s.mean() == pytest.approx(2.0)
        assert s.total() == pytest.approx(6.0)
        assert s.max() == pytest.approx(3.0)
        assert s.last() == pytest.approx(2.0)
        assert len(s) == 3

    def test_empty_series_reductions(self):
        mon = Monitor()
        s = mon.series("empty")
        assert math.isnan(s.mean())
        assert s.total() == 0.0
        assert math.isnan(s.max())
        assert math.isnan(s.last())
        assert math.isnan(s.percentile(50))

    def test_series_percentile(self):
        mon = Monitor()
        s = mon.series("x")
        for i in range(101):
            s.record(float(i), float(i))
        assert s.percentile(50) == pytest.approx(50.0)
        assert s.percentile(95) == pytest.approx(95.0)

    def test_series_arrays_are_copies(self):
        mon = Monitor()
        s = mon.series("x")
        s.record(0.0, 1.0)
        arr = s.values
        arr[0] = 999.0
        assert s.values[0] == 1.0

    def test_summary_merges_counters_and_series(self):
        mon = Monitor()
        mon.counter("sent").add(4)
        mon.series("rt").record(0.0, 2.0)
        summary = mon.summary()
        assert summary["sent"] == 4
        assert summary["rt.mean"] == pytest.approx(2.0)
        assert summary["rt.total"] == pytest.approx(2.0)

    def test_summary_skips_empty_series(self):
        mon = Monitor()
        mon.series("empty")
        assert "empty.mean" not in mon.summary()
