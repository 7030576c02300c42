"""Span-based tracing over *simulated* time.

A :class:`Tracer` records what happened during a run as an append-only
sequence of :class:`SpanRecord` (an interval of virtual time with a
parent) and :class:`TraceEvent` (an instant) entries.  Recording is
cheap -- one object append, no reductions, no I/O -- so instrumentation
does not distort timing-sensitive benchmarks; analysis and export happen
after the run (:mod:`repro.observability.analysis`,
:mod:`repro.observability.export`).

Causality
---------
Spans form parent/child trees.  The tracer keeps a *current span*;
:meth:`Tracer.span` context managers nest naturally, and code that hops
across scheduled callbacks (almost everything in this callback-style
codebase) inherits its parent automatically when the shared
:class:`~repro.simkernel.simulator.Simulator` carries the tracer: the
simulator captures the current span at ``schedule()`` time and restores
it around the callback, so a query's uplink transfer scheduled three
callbacks deep still lands under the query's span.  Every root span
opens a new trace id; descendants inherit it, which is how one query's
journey is followed across subsystems.

Disabled tracing
----------------
``Tracer(sim, enabled=False)`` (and the shared :data:`NOOP_TRACER`) turn
every operation into an early return on a singleton.  Instrumentation
sites guard attribute-rich calls with ``if tracer.enabled:`` so the
disabled record path allocates nothing (asserted by a tier-1 test).

Bounded recording
-----------------
Two opt-in mechanisms keep long soak runs from growing without bound:
``max_records`` turns :attr:`Tracer.records` into a ring (oldest record
evicted, counted on :attr:`Tracer.dropped` and the ``obs.trace.dropped``
monitor counter when a monitor is attached), and a
:class:`~repro.observability.sampling.TraceSampler` decides per *trace*
what is retained at all (deterministic head sampling plus tail-based
retention of error/SLO-violating/slow traces; see
:mod:`repro.observability.sampling`).  Both default off: the append-only
behavior above is unchanged unless asked for.
"""

from __future__ import annotations

import collections
import itertools
import typing

from repro import checks

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.simulator import Simulator

#: Span ended normally.
STATUS_OK = "ok"
#: Span ended representing a failure (drop, timeout, failed attempt).
STATUS_ERROR = "error"


class SpanRecord:
    """One interval of virtual time, belonging to a trace tree.

    Attributes
    ----------
    trace_id:
        Id shared by every span/event descending from one root span.
    span_id / parent_id:
        Tree structure (``parent_id`` is ``None`` for roots).
    name:
        Dotted span name; the prefix before the first dot is the
        subsystem (``net.send`` -> ``net``).
    start_s / end_s:
        Virtual-time interval; ``end_s`` is ``None`` while open.
    attrs:
        Key/value annotations (kept JSON-friendly by callers).
    status:
        ``"ok"`` or ``"error"`` once ended.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_s",
                 "end_s", "attrs", "status")

    def __init__(self, trace_id: int, span_id: int, parent_id: int | None,
                 name: str, start_s: float, attrs: dict) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s: float | None = None
        self.attrs = attrs
        self.status = STATUS_OK

    @property
    def duration_s(self) -> float:
        """Span length (0 while still open)."""
        return 0.0 if self.end_s is None else self.end_s - self.start_s

    @property
    def subsystem(self) -> str:
        """The name's first dotted component."""
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        """JSON-ready form (the JSONL export schema)."""
        return {
            "kind": "span", "trace": self.trace_id, "span": self.span_id,
            "parent": self.parent_id, "name": self.name,
            "start": self.start_s, "end": self.end_s, "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecord({self.name!r}, trace={self.trace_id}, "
                f"[{self.start_s:.6g}, {self.end_s}], {self.status})")


class TraceEvent:
    """A fire-and-forget instant attributed to a span (or free-floating)."""

    __slots__ = ("trace_id", "parent_id", "name", "time_s", "attrs")

    def __init__(self, trace_id: int, parent_id: int | None, name: str,
                 time_s: float, attrs: dict) -> None:
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.time_s = time_s
        self.attrs = attrs

    @property
    def subsystem(self) -> str:
        """The name's first dotted component."""
        return self.name.split(".", 1)[0]

    def to_dict(self) -> dict:
        """JSON-ready form (the JSONL export schema)."""
        return {
            "kind": "event", "trace": self.trace_id, "parent": self.parent_id,
            "name": self.name, "time": self.time_s, "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.name!r}, t={self.time_s:.6g})"


class Span:
    """Open-span handle: annotate, emit child events, end.

    Usable either as a context manager (``with tracer.span(...)``, which
    also makes it the current span) or held across callbacks and ended
    explicitly with :meth:`end`.
    """

    __slots__ = ("_tracer", "record", "_parent")

    def __init__(self, tracer: "Tracer", record: SpanRecord,
                 parent: "Span | None" = None) -> None:
        self._tracer = tracer
        self.record = record
        #: Parent handle, kept so later work can attach to the nearest
        #: still-open ancestor once this span has ended.
        self._parent = parent

    # -- introspection -------------------------------------------------
    @property
    def name(self) -> str:
        return self.record.name

    @property
    def trace_id(self) -> int:
        return self.record.trace_id

    @property
    def span_id(self) -> int:
        return self.record.span_id

    @property
    def ended(self) -> bool:
        return self.record.end_s is not None

    # -- mutation ------------------------------------------------------
    def set(self, **attrs) -> "Span":
        """Merge annotations into the span; returns self for chaining."""
        self.record.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs) -> None:
        """Emit an instant event parented to *this* span."""
        self._tracer._event_under(self.record, name, attrs)

    def end(self, status: str = STATUS_OK) -> None:
        """Close the span at the current virtual time (idempotent)."""
        if self.record.end_s is None:
            self.record.end_s = self._tracer._now()
            self.record.status = status
            if self._tracer.sampler is not None:
                self._tracer.sampler.on_span_end(self.record)

    def end_at(self, time_s: float, status: str = STATUS_OK) -> None:
        """Close the span at an explicit virtual time (idempotent).

        For analytic models that compute a phase's duration without
        scheduling an event at its boundary: the span can be stamped with
        the phase's true end instead of whenever the completion callback
        happens to run.  ``time_s`` is clamped to the span's start.
        """
        if self.record.end_s is None:
            self.record.end_s = max(float(time_s), self.record.start_s)
            self.record.status = status
            if self._tracer.sampler is not None:
                self._tracer.sampler.on_span_end(self.record)

    # -- context manager ----------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self)
        self.end(STATUS_ERROR if exc_type is not None else STATUS_OK)


class _NoopSpan:
    """Shared do-nothing span for disabled tracers (never allocates)."""

    __slots__ = ()

    record = None
    name = ""
    trace_id = -1
    span_id = -1
    ended = True

    def set(self, **attrs) -> "_NoopSpan":
        return self

    def event(self, name: str, **attrs) -> None:
        return None

    def end(self, status: str = STATUS_OK) -> None:
        return None

    def end_at(self, time_s: float, status: str = STATUS_OK) -> None:
        return None

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Append-only recorder of spans and events over virtual time.

    Parameters
    ----------
    sim:
        Clock source.  May be ``None`` only for a disabled tracer.
    enabled:
        When False every method early-returns on shared singletons;
        instrumentation sites additionally guard with
        ``if tracer.enabled:`` to keep the disabled path allocation-free.
    max_records:
        Optional ring size for :attr:`records`: once full, the oldest
        record is evicted per append and counted on :attr:`dropped` (and
        the ``obs.trace.dropped`` counter when :attr:`monitor` is set).
        Default ``None``: unlimited, the historical append-only log.
    sampler:
        Optional :class:`~repro.observability.sampling.TraceSampler`;
        when set, every record routes through its per-trace retention
        policy instead of appending unconditionally.
    monitor:
        Optional :class:`~repro.simkernel.monitor.Monitor` receiving the
        ``obs.trace.*`` / ``obs.sampling.*`` counters.

    Attributes
    ----------
    records:
        The record log, in retention order (spans appear at their
        *start*; their ``end_s`` is filled in place when they close;
        sampler-deferred traces flush at their tail decision).
    dropped:
        Records evicted by the ``max_records`` ring so far.
    """

    def __init__(self, sim: "Simulator | None", enabled: bool = True, *,
                 max_records: int | None = None,
                 sampler: "typing.Any | None" = None,
                 monitor: "typing.Any | None" = None) -> None:
        if enabled and sim is None:
            raise ValueError("an enabled tracer needs a simulator for timestamps")
        if sampler is not None and not enabled:
            raise ValueError("a sampler needs an enabled tracer")
        self.sim = sim
        self.enabled = enabled
        if max_records is not None:
            checks.count("max_records", max_records, 1)
        self.max_records = max_records
        self.records: typing.MutableSequence[SpanRecord | TraceEvent] = (
            [] if max_records is None else collections.deque())
        self.dropped = 0
        self.monitor = monitor
        self.sampler = sampler
        self._finalized = False
        self._trace_ids = itertools.count()
        self._span_ids = itertools.count()
        self._stack: list[Span] = []
        if sampler is not None:
            sampler.bind(self)

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> Span | _NoopSpan:
        """Start a span under the current one; use as a context manager
        (entering makes it current) or call :meth:`Span.end` yourself."""
        if not self.enabled:
            return NOOP_SPAN
        return self._begin(name, self.current_span, attrs)

    def span_under(self, parent: Span | _NoopSpan | None, name: str, **attrs) -> Span | _NoopSpan:
        """Start a span with an explicit parent (``None`` = new root)."""
        if not self.enabled:
            return NOOP_SPAN
        return self._begin(name, parent if isinstance(parent, Span) else None, attrs)

    def event(self, name: str, **attrs) -> None:
        """Record an instant event under the current span."""
        if not self.enabled:
            return
        current = self._stack[-1].record if self._stack else None
        self._event_under(current, name, attrs)

    # ------------------------------------------------------------------
    # current-span context
    # ------------------------------------------------------------------
    @property
    def current_span(self) -> Span | None:
        """The innermost active span (None outside any span)."""
        return self._stack[-1] if self._stack else None

    def use(self, span: Span | _NoopSpan | None) -> "_Activation":
        """Context manager making ``span`` current without ending it on
        exit -- the re-entry idiom for callback code that holds a span
        across asynchronous hops."""
        if not self.enabled or not isinstance(span, Span):
            return _NOOP_ACTIVATION
        return _Activation(self, span)

    # ------------------------------------------------------------------
    # export / reset
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Flush sampling state (idempotent; no-op without a sampler).

        Retains the exemplar reservoir and still-open buffered traces,
        then appends one ``obs.sampling.summary`` event carrying the
        retained-vs-emitted counters.  Called automatically by
        :meth:`export`; call it directly before reading
        :attr:`records` in-process at the end of a sampled run.
        """
        if self.sampler is None or self._finalized:
            return
        self._finalized = True
        self.sampler.finish()
        self._append(self.sampler.summary_event(next(self._trace_ids), self._now()))

    def export(self, path) -> int:
        """Write all records as JSONL; returns the record count."""
        from repro.observability.export import write_jsonl

        self.finalize()
        return write_jsonl(self.records, path)

    def spans(self) -> list[SpanRecord]:
        """All span records, in start order."""
        return [r for r in self.records if isinstance(r, SpanRecord)]

    def events(self) -> list[TraceEvent]:
        """All event records, in recording order."""
        return [r for r in self.records if isinstance(r, TraceEvent)]

    def clear(self) -> None:
        """Drop all records (between benchmark repetitions)."""
        self.records.clear()
        self._stack.clear()
        self.dropped = 0
        self._finalized = False
        if self.sampler is not None:
            self.sampler.reset()

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # internals (also called by Simulator context propagation)
    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self.sim.now  # type: ignore[union-attr]

    @staticmethod
    def _nearest_open(span: Span | None) -> Span | None:
        """``span`` or its closest unended ancestor (None when all ended).

        Callback-style code routinely closes a span and then, in the same
        callback, starts the next stage (discovery ends, execution
        begins); the new work belongs to the enclosing still-open span,
        not to a fresh root."""
        while span is not None and span.ended:
            span = span._parent
        return span

    def _begin(self, name: str, parent: Span | None, attrs: dict) -> Span:
        parent = self._nearest_open(parent)
        if parent is not None:
            trace_id = parent.record.trace_id
            parent_id = parent.record.span_id
        else:
            trace_id = next(self._trace_ids)
            parent_id = None
        record = SpanRecord(trace_id, next(self._span_ids), parent_id,
                            name, self._now(), attrs)
        if self.sampler is None:
            self._append(record)
        else:
            self.sampler.offer(record)
        return Span(self, record, parent)

    def _event_under(self, parent: SpanRecord | None, name: str, attrs: dict) -> None:
        if not self.enabled:
            return
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(self._trace_ids), None
        record = TraceEvent(trace_id, parent_id, name, self._now(), attrs)
        if self.sampler is None:
            self._append(record)
        else:
            self.sampler.offer(record)

    def _append(self, record: SpanRecord | TraceEvent) -> None:
        """Final retention: append, evicting from the ring when bounded."""
        if self.max_records is not None and len(self.records) >= self.max_records:
            self.records.popleft()
            self.dropped += 1
            if self.monitor is not None:
                self.monitor.counter("obs.trace.dropped").add(1)
        self.records.append(record)

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # tolerate out-of-order exits from callback-style code
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)

    # -- hooks used by Simulator.schedule/step -------------------------
    def _capture(self) -> Span | None:
        """Snapshot the current span (taken when an event is scheduled)."""
        if not self.enabled or not self._stack:
            return None
        return self._nearest_open(self._stack[-1])

    def _activate(self, span: Span | None) -> list[Span]:
        """Swap the stack to ``[span]`` for a callback; returns the old
        stack for :meth:`_deactivate`.  A captured span that ended before
        its callback runs is stood in for by its nearest open ancestor."""
        old = self._stack
        span = self._nearest_open(span)
        self._stack = [span] if span is not None else []
        return old

    def _deactivate(self, old: list[Span]) -> None:
        self._stack = old


class _Activation:
    """Re-entry context: temporarily make one span current."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._pop(self._span)


class _NoopActivation:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP_ACTIVATION = _NoopActivation()

#: Shared disabled tracer: the default everywhere instrumentation is wired.
NOOP_TRACER = Tracer(sim=None, enabled=False)
