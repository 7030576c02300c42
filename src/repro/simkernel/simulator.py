"""The deterministic event loop.

:class:`Simulator` owns the virtual clock and the pending-event list.  All
substrates (network, sensors, grid, agents) schedule work through one
shared ``Simulator`` so cross-subsystem causality is consistent.
Pending events live in one :class:`~repro.simkernel.eventlist.EventList`,
which dispatches in the exact ``(time, priority, seq)`` total order.
"""

from __future__ import annotations

import math
import typing

from repro.simkernel.event import EventHandle, PRIORITY_NORMAL
from repro.simkernel.eventlist import EventList


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a finished sim)."""


class Simulator:
    """A single-threaded discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial virtual time (default ``0.0``).

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(5.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5.0]
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._events = EventList()
        self._running = False
        self._stopped = False
        self._events_executed = 0
        #: Optional :class:`repro.observability.tracer.Tracer`.  When set
        #: (and enabled), the simulator captures the tracer's current
        #: span at ``schedule()`` time and restores it around the
        #: callback, so trace causality follows work across event hops.
        self.tracer = None
        #: Optional :class:`repro.observability.profiling.HookProfiler`.
        #: When set (and enabled), every event dispatch is timed in
        #: *wall clock* and attributed to its handler; the guard below is
        #: one attribute load + identity check, so the default (``None``)
        #: keeps the dispatch hot path allocation-free.
        self.profiler = None

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of (non-cancelled) events executed so far."""
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of *live* events awaiting execution.

        Cancelled-but-unswept tombstones are excluded -- this is the
        number monitors and dashboards should show.  The raw entry count
        (the pre-PR-10 ``pending`` semantics) lives on :attr:`queued`.
        """
        return len(self._events)

    @property
    def queued(self) -> int:
        """Raw pending-list entry count, cancelled tombstones included.

        This is the historical ``pending`` semantics: how many entries
        the event list physically holds.  ``queued - pending`` is the
        current tombstone debt awaiting compaction.
        """
        return self._events.queued

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: typing.Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` time units from now.

        ``delay`` must be finite and non-negative; zero delays are allowed
        and fire in FIFO order after currently-executing events at the same
        time and priority.
        """
        if not math.isfinite(delay) or delay < 0:
            raise SimulationError(f"delay must be finite and >= 0, got {delay!r}")
        return self.schedule_at(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: typing.Callable[[], None],
        *,
        priority: int = PRIORITY_NORMAL,
        label: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute virtual ``time`` (>= now)."""
        if not math.isfinite(time) or time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r} (now={self._now!r}); time must be finite and >= now"
            )
        tracer = self.tracer
        ctx = tracer._capture() if tracer is not None and tracer.enabled else None
        events = self._events
        event = events.add(float(time), priority, callback, label, ctx)
        return EventHandle(event, events)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single next non-cancelled event.

        Returns ``True`` if an event was executed, ``False`` if no live
        event remains (simulation exhausted).
        """
        event = self._events.pop()
        if event is None:
            return False
        self._now = event.time
        self._events_executed += 1
        callback, event.callback = event.callback, _already_fired
        profiler = self.profiler
        profiling = profiler is not None and profiler.enabled
        if profiling:
            profiler._begin_event(event, callback)
        try:
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                # run under the span current at schedule time (possibly
                # none), not whatever span the stepping code is inside
                saved = tracer._activate(event.trace_ctx)
                try:
                    callback()
                finally:
                    tracer._deactivate(saved)
            else:
                callback()
        finally:
            if profiling:
                profiler._end_event()
            # safe to reuse: the callback ran (or raised) and the event
            # left the list; handles detect the generation bump
            self._events.recycle(event)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            If given, stop once the next event's time exceeds ``until`` and
            advance the clock to exactly ``until``.  If omitted, run until
            no live event remains.
        max_events:
            Safety valve: stop after executing this many events.

        The loop also stops early if :meth:`stop` is called from inside an
        event callback.

        Clock contract: on return, ``now`` has advanced to ``until``
        unless the run was cut short (by :meth:`stop` or ``max_events``)
        while a live event at or before ``until`` is still pending -- the
        clock never jumps past work that has not run.  Every exit path
        obeys the same rule; in particular a ``max_events`` exit whose
        only remaining events are cancelled or later than ``until`` still
        lands exactly on ``until``.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        events = self._events
        try:
            while not self._stopped:
                head = events.peek()
                if head is None:
                    break
                if until is not None and head.time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                self.step()
                executed += 1
            if until is not None and not self._stopped and self._now < until:
                head = events.peek()
                if head is None or head.time > until:
                    self._now = float(until)
        finally:
            self._running = False

    def stop(self) -> None:
        """Request that the current :meth:`run` return after this event."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6g}, pending={self.pending}, executed={self._events_executed})"


def _already_fired() -> None:  # pragma: no cover - defensive
    raise SimulationError("event callback invoked twice")
