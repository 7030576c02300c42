"""Events and event handles for the DES kernel.

An :class:`Event` is a callback scheduled at a virtual time.  Events are
totally ordered by ``(time, priority, seq)``: ties in time are broken by an
explicit priority (lower runs first) and then by insertion order, which is
what makes simulation runs bit-for-bit reproducible.

Events are plain ``__slots__`` objects (not dataclasses) because they are
the single most-allocated object in a large simulation; the event list in
:mod:`repro.simkernel.eventlist` recycles fired events through a free list,
so a steady-state run allocates no new Event objects at all.  Recycling is
made safe for outstanding :class:`EventHandle`\\ s by a generation counter:
the handle remembers the generation it was issued against and turns into
an inert "already fired" token once the event is reused.
"""

from __future__ import annotations

import typing


#: Priority for events that must run before ordinary events at the same time
#: (e.g. topology updates that must precede message deliveries).
PRIORITY_HIGH = 0
#: Default priority for ordinary events.
PRIORITY_NORMAL = 10
#: Priority for bookkeeping that must observe all normal events at a time.
PRIORITY_LOW = 20


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.simkernel.simulator.Simulator.schedule`
    rather than directly.  The event list keeps each event's ordering key
    ``(time, priority, seq)`` beside it, so the event itself carries only
    what dispatch and handles read.

    Attributes
    ----------
    time:
        Virtual time at which the callback fires.
    callback:
        Zero-argument callable invoked when the event fires.
    cancelled:
        Set via :meth:`EventHandle.cancel`; cancelled events are skipped
        (lazy deletion -- cheaper than heap surgery) and reclaimed by the
        event list's compaction pass.
    label:
        Optional human-readable tag used by tracing.
    trace_ctx:
        Span captured from the scheduler's tracer at schedule time (None
        when tracing is disabled); restored as the current span around
        the callback, so causality follows work across scheduled hops.
    gen:
        Reuse generation.  Bumped every time the event object is recycled
        into a free list; handles compare it to detect reuse.
    in_queue:
        True while the event sits in an event list (live or tombstoned);
        lets ``cancel`` bookkeeping distinguish queued events from ones
        already dispatched.
    """

    __slots__ = ("time", "callback", "cancelled", "label", "trace_ctx",
                 "gen", "in_queue")

    def __init__(
        self,
        time: float,
        callback: typing.Callable[[], None],
        label: str = "",
        trace_ctx: typing.Any = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.label = label
        self.trace_ctx = trace_ctx
        self.gen = 0
        self.in_queue = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6g}, {state}, label={self.label!r})"


class EventHandle:
    """Caller-facing handle to a scheduled event.

    Allows cancellation and introspection without exposing the event-list
    entry mutably.  Handles are cheap; the kernel returns one per
    ``schedule``.  A handle stays valid for ever: once the underlying
    event has fired and been recycled for a new schedule, the handle
    detects the generation change and behaves as "already fired".
    """

    __slots__ = ("_event", "_gen", "_time", "_label", "_requested", "_owner")

    def __init__(self, event: Event, owner: typing.Any) -> None:
        self._event = event
        self._gen = event.gen
        self._time = event.time
        self._label = event.label
        #: True once cancel() has been called on *this handle* -- kept
        #: separately so the answer survives event recycling.
        self._requested = False
        self._owner = owner

    @property
    def time(self) -> float:
        """Virtual time at which the event will fire (or would have)."""
        return self._time

    @property
    def label(self) -> str:
        """The label given at scheduling time."""
        return self._label

    @property
    def cancelled(self) -> bool:
        """True if :meth:`cancel` was called before the event fired."""
        event = self._event
        if event.gen == self._gen:
            return event.cancelled
        return self._requested

    def cancel(self) -> None:
        """Prevent the event from firing.

        Idempotent.  Cancelling an event that already fired has no effect
        (the kernel recycles the event object after firing; the stale
        generation tells this handle there is nothing left to suppress).
        """
        self._requested = True
        event = self._event
        if event.gen == self._gen and not event.cancelled:
            event.cancelled = True
            self._owner.note_cancel(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6g}, {state}, label={self.label!r})"
