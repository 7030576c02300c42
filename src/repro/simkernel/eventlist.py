"""The pending-event list of the DES kernel.

One binary heap of ``(time, priority, seq, event)`` entries.  Tuples
compare in C, and ``seq`` is unique, so the heap never compares two
:class:`~repro.simkernel.event.Event` objects and pops follow the exact
kernel total order ``(time, priority, seq)``.

*Slot reuse*: fired and compacted events are recycled through a bounded
free list (:meth:`EventList.recycle`), so steady-state simulation
allocates no Event objects.  Generation counters on the events keep
outstanding :class:`~repro.simkernel.event.EventHandle` objects safe.

*Cancellation accounting*: ``EventHandle.cancel`` notifies the list
(:meth:`EventList.note_cancel`), so ``len(list)`` is always the number of
*live* events -- the count monitors and dashboards want -- while
:attr:`EventList.queued` keeps the raw entry count including tombstones.
When tombstones outnumber live events (and exceed a floor), the list
compacts: cancelled entries are swept out and recycled instead of
lingering until their virtual time arrives.
"""

from __future__ import annotations

import heapq
import typing

from repro.simkernel.event import Event

#: Recycled events kept for reuse; beyond this they are dropped for GC.
FREELIST_MAX = 8192
#: Compaction fires when tombstones exceed both this floor and the live count.
COMPACT_MIN_TOMBSTONES = 64


class EventList:
    """Binary heap of pending events with lazy cancellation."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._tombstones = 0
        self._free: list[Event] = []

    def add(
        self,
        time: float,
        priority: int,
        callback: typing.Callable[[], None],
        label: str,
        trace_ctx: typing.Any,
    ) -> Event:
        """Queue a fresh-or-recycled Event; ties in ``(time, priority)``
        fire in the order they were added."""
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.callback = callback
            event.label = label
            event.trace_ctx = trace_ctx
        else:
            event = Event(time, callback, label, trace_ctx)
        event.in_queue = True
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def recycle(self, event: Event) -> None:
        """Return a dispatched/compacted event to the free list.

        Bumps the generation so outstanding handles go inert, and clears
        reference-holding fields so recycling never extends the life of
        callbacks or trace spans.
        """
        event.gen += 1
        event.callback = None  # type: ignore[assignment]
        event.trace_ctx = None
        event.label = ""
        event.cancelled = False
        event.in_queue = False
        if len(self._free) < FREELIST_MAX:
            self._free.append(event)

    def peek(self) -> Event | None:
        """The next live event, pruning cancelled heads (no removal)."""
        heap = self._heap
        while heap:
            head = heap[0][3]
            if not head.cancelled:
                return head
            heapq.heappop(heap)
            self._tombstones -= 1
            self.recycle(head)
        return None

    def pop(self) -> Event | None:
        """Remove and return the next live event, or None when empty."""
        head = self.peek()
        if head is None:
            return None
        heapq.heappop(self._heap)
        head.in_queue = False
        self._live -= 1
        return head

    def note_cancel(self, event: Event) -> None:
        """Bookkeeping hook called by ``EventHandle.cancel``."""
        if not event.in_queue:
            return  # already dispatched (or swept); nothing queued to count
        self._live -= 1
        self._tombstones += 1
        if self._tombstones > COMPACT_MIN_TOMBSTONES and self._tombstones > self._live:
            self._compact()

    def _compact(self) -> None:
        live = [entry for entry in self._heap if not entry[3].cancelled]
        dead = [entry[3] for entry in self._heap if entry[3].cancelled]
        heapq.heapify(live)
        self._heap = live
        self._tombstones = 0
        for event in dead:
            self.recycle(event)

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) queued events."""
        return self._live

    @property
    def queued(self) -> int:
        """Raw entry count including cancelled tombstones."""
        return len(self._heap)
