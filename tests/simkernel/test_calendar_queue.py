"""The kernel's event list against a brute-force reference scheduler.

``ReferenceSim`` keeps pending callbacks in a dict and always runs the
minimum ``(time, priority, seq)`` live entry.  It shares no code with the
kernel, so equal dispatch traces over randomized workloads -- nested
scheduling, zero delays, same-time ties, cancels from inside callbacks,
wide and narrow time distributions -- pin the kernel's total order.  The
remaining tests pin the live/raw counts, compaction and slot reuse.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simkernel import Simulator
from repro.simkernel.event import PRIORITY_NORMAL
from repro.simkernel.eventlist import COMPACT_MIN_TOMBSTONES


class _RefHandle:
    cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceSim:
    """Oracle scheduler: an O(n) minimum search per dispatched event."""

    def __init__(self) -> None:
        self.now = 0.0
        self._pending: dict[int, tuple] = {}
        self._seq = 0

    def schedule_at(self, time, callback, *, priority=PRIORITY_NORMAL):
        handle = _RefHandle()
        self._pending[self._seq] = (float(time), priority, callback, handle)
        self._seq += 1
        return handle

    def schedule(self, delay, callback, *, priority=PRIORITY_NORMAL):
        return self.schedule_at(self.now + delay, callback, priority=priority)

    def run(self) -> None:
        pending = self._pending
        while True:
            live = [s for s, entry in pending.items() if not entry[3].cancelled]
            if not live:
                return
            seq = min(live, key=lambda s: (pending[s][0], pending[s][1], s))
            time, _, callback, _ = pending.pop(seq)
            self.now = time
            callback()


def run_workload(sim, seed: int, *, n_roots: int = 60) -> list[tuple]:
    """Drive one scheduler through a randomized self-scheduling workload.

    Returns the full dispatch trace: (time, tag) per executed event.  The
    workload covers nested scheduling, priorities, zero delays, cancels
    (including cancelling from inside callbacks), and heavy same-time ties.
    """
    rng = np.random.default_rng(seed)
    trace: list[tuple] = []
    handles: list = []

    def make_cb(tag: int, depth: int):
        def cb() -> None:
            trace.append((sim.now, tag))
            if depth > 0:
                for k in range(int(rng.integers(0, 3))):
                    delay = float(rng.choice([0.0, 0.25, rng.random() * 8.0]))
                    pri = int(rng.integers(0, 3))
                    h = sim.schedule(delay, make_cb(tag * 10 + k, depth - 1),
                                     priority=pri)
                    handles.append(h)
                if handles and rng.random() < 0.3:
                    victim = handles[int(rng.integers(0, len(handles)))]
                    victim.cancel()

        return cb

    for i in range(n_roots):
        t = float(rng.choice([0.0, 1.0, rng.random() * 50.0]))
        sim.schedule_at(t, make_cb(i, 2), priority=int(rng.integers(0, 2)))
    sim.run()
    return trace


@pytest.fixture(params=["heap"])
def sim():
    """A fresh simulator on the kernel's binary-heap event list."""
    return Simulator()


class TestCalendarHeapEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_bit_identical_traces(self, seed):
        """Same seed => byte-for-byte identical dispatch, kernel vs oracle."""
        assert run_workload(Simulator(), seed) == run_workload(ReferenceSim(), seed)

    def test_same_time_priority_ties_fifo(self):
        """Ties at (time, priority) dispatch in scheduling (seq) order."""
        sim = Simulator()
        order = []
        for i in range(50):
            sim.schedule_at(3.0, lambda i=i: order.append(i), priority=5)
        sim.run()
        assert order == list(range(50))

    def test_zero_delay_chains(self):
        """Zero-delay events fire after the current event, FIFO."""
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0.0, lambda: order.append("chained"))

        sim.schedule(1.0, first)
        sim.schedule_at(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second", "chained"]

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                st.integers(min_value=-3, max_value=3),
            ),
            min_size=1,
            max_size=120,
        )
    )
    def test_property_arbitrary_times_and_priorities(self, items):
        """Hypothesis: any (time, priority) multiset dispatches identically
        on the kernel and the oracle."""
        traces = []
        for sim in (Simulator(), ReferenceSim()):
            trace = []
            for j, (t, pri) in enumerate(items):
                sim.schedule_at(t, lambda j=j, sim=sim: trace.append((sim.now, j)),
                                priority=pri)
            sim.run()
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_unknown_queue_rejected(self):
        """The kernel has one event list; there is no selector to pass."""
        with pytest.raises(TypeError, match="queue"):
            Simulator(queue="calendar")


class TestPendingSemantics:
    def test_pending_excludes_cancelled(self, sim):
        """``pending`` is the live count; ``queued`` keeps the historical
        raw-entry semantics (tombstones included until compaction)."""
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending == 10
        assert sim.queued == 10
        for h in handles[:4]:
            h.cancel()
        assert sim.pending == 6
        # below the compaction floor the tombstones are still resident
        assert sim.queued == 10
        sim.run()
        assert sim.pending == 0
        assert sim.events_executed == 6

    def test_compaction_sweeps_tombstone_debt(self, sim):
        """Cancelling most of a large queue triggers compaction: queued
        drops back toward pending instead of holding every tombstone."""
        n = 6 * COMPACT_MIN_TOMBSTONES
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(n)]
        for h in handles[: n - COMPACT_MIN_TOMBSTONES // 2]:
            h.cancel()
        live = COMPACT_MIN_TOMBSTONES // 2
        assert sim.pending == live
        assert sim.queued < n  # compaction fired at least once
        assert sim.queued - sim.pending <= max(COMPACT_MIN_TOMBSTONES, live)
        fired = sim.events_executed
        sim.run()
        assert sim.events_executed - fired == live

    def test_cancel_during_dispatch_of_same_event(self, sim):
        """A callback cancelling its own already-dispatched handle must not
        corrupt the live count (the event is no longer queued)."""
        box = {}

        def cb():
            box["h"].cancel()

        box["h"] = sim.schedule(1.0, cb)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        assert sim.events_executed == 2

    def test_double_cancel_counts_once(self, sim):
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        h.cancel()
        h.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.events_executed == 1


class TestSlotReuse:
    def test_handles_survive_event_recycling(self, sim):
        """An EventHandle held after its event fired (and its Event object
        was recycled into a new event) must stay inert: cancel() is a
        no-op for the new occupant, and metadata still reads correctly."""
        fired = []
        h1 = sim.schedule(1.0, lambda: fired.append("a"), label="first")
        sim.run()
        assert fired == ["a"]
        # schedule more work -- the kernel may reuse h1's Event slot
        h2 = sim.schedule(1.0, lambda: fired.append("b"), label="second")
        h1.cancel()  # stale handle: must not cancel h2's event
        sim.run()
        assert fired == ["a", "b"]
        assert h1.label == "first"
        assert h1.time == 1.0
        assert not h2.cancelled

    def test_many_rounds_reuse_is_invisible(self, sim):
        """Thousands of alloc/recycle cycles never change behavior."""
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 3000:
                sim.schedule(0.5, tick)

        sim.schedule(0.5, tick)
        sim.run()
        assert count[0] == 3000
        assert sim.pending == 0


class TestCalendarInternals:
    def test_resize_preserves_order_across_growth(self):
        """5,000 distinct times pushed at once still fire in time order."""
        sim = Simulator()
        rng = np.random.default_rng(11)
        times = rng.random(5000) * 1e4
        fired = []
        for t in sorted(set(float(x) for x in times)):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(set(fired))

    def test_sparse_then_dense_time_distributions(self):
        """Clustered-then-spread times keep the exact order."""
        sim = Simulator()
        fired = []
        # dense cluster near t=1
        for i in range(200):
            sim.schedule_at(1.0 + i * 1e-9, lambda i=i: fired.append(("d", i)))
        # sparse tail out to t=1e6
        for i in range(20):
            sim.schedule_at(1e4 * (i + 1), lambda i=i: fired.append(("s", i)))
        sim.run()
        assert fired[:200] == [("d", i) for i in range(200)]
        assert fired[200:] == [("s", i) for i in range(20)]
