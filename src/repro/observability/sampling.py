"""Deterministic head + tail-based trace sampling.

A traced 10^5-query soak run cannot keep every span.  This module
decides, per *trace* (one root span and everything beneath it), what the
:class:`~repro.observability.tracer.Tracer` retains:

* **Head sampling** -- at root-span start, a deterministic hash of the
  trace's sampling key (the ``sampling_key`` attribute the query
  executor stamps, falling back to the trace id) against
  :attr:`SamplingConfig.head_rate`.  Hash-based, not RNG-based, so the
  same key is kept or dropped identically in every run, process, and
  worker count.
* **Tail retention** -- head-dropped traces are buffered until their
  root ends, then kept anyway when something interesting happened:
  any span ended with error status, an SLO alert fired during the
  trace or in the minute before it (:meth:`TraceSampler.note_alert`,
  wired from the :class:`~repro.observability.slo.SLOEvaluator`), or the
  root's duration is a slow outlier (past the p99 of a root-duration
  :class:`~repro.observability.sketch.QuantileSketch`).
* **Exemplar reservoir** -- a seeded Algorithm-R reservoir keeps a few
  representative happy-path traces so the retained set is never *only*
  pathologies.

Free-floating events (``slo.fire``, ``slo.sample``, ``faults.inject`` --
anything recorded outside a span tree) are always retained: the
dashboard's timeline must survive sampling.

Every decision is counted under ``obs.sampling.*`` monitor counters and
summarized in one ``obs.sampling.summary`` trace event at export, so
dropped volume is always visible.  All state is bounded and all
decisions are deterministic functions of the workload and the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import typing

from repro import checks
from repro.observability.sketch import QuantileSketch
from repro.observability.tracer import SpanRecord, TraceEvent

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.observability.tracer import Tracer

#: Retained-decision markers kept per trace id (bounded map).
_KEEP, _DROP, _RESERVOIR = "keep", "drop", "reservoir"
#: Decision-map bound: oldest decisions are forgotten past this many
#: traces; a record arriving for a forgotten trace is retained (safe
#: default, and only reachable for pathologically late records).
_MAX_DECISIONS = 8192
#: Minimum root-duration observations before the slow-outlier
#: threshold activates (quantiles of a handful of samples are noise).
_MIN_SLOW_SAMPLES = 20
#: Root-duration quantile a root must clear, by the sketch's error band,
#: to count as a slow outlier.
_SLOW_QUANTILE = 0.99
#: A trace counts as SLO-violating when an alert fired no earlier than
#: this many simulated seconds before its root started.
_ALERT_WINDOW_S = 60.0

_COUNTER_FIELDS = (
    "traces_emitted", "traces_retained", "traces_dropped",
    "spans_emitted", "spans_retained", "spans_dropped",
    "head_kept", "tail_kept", "exemplars_kept",
)


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    """Knobs for one :class:`TraceSampler`.

    Attributes
    ----------
    head_rate:
        Fraction of traces kept unconditionally at root start (0..1).
    exemplar_capacity:
        Seeded reservoir size for happy-path traces (0 disables).
    seed:
        Seeds the exemplar reservoir's RNG and salts the head hash.
    """

    head_rate: float = 0.1
    exemplar_capacity: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        checks.fraction("head_rate", self.head_rate)
        checks.count("exemplar_capacity", self.exemplar_capacity)
        checks.count("seed", self.seed)


class TraceSampler:
    """Per-trace retention policy plugged into a :class:`Tracer`.

    The tracer routes every record through :meth:`offer` instead of
    appending directly, and notifies :meth:`on_span_end` when spans
    close; :meth:`finish` (called by ``Tracer.finalize``/``export``)
    flushes the exemplar reservoir and any still-open buffered traces.

    Attributes
    ----------
    stats:
        Monotonic decision counters (also mirrored to ``obs.sampling.*``
        monitor counters when a monitor is attached).
    durations:
        The root-duration :class:`QuantileSketch` driving the
        slow-outlier threshold.
    """

    def __init__(self, config: SamplingConfig | None = None) -> None:
        self.config = config or SamplingConfig()
        self.tracer: "Tracer | None" = None
        self.stats: dict[str, int] = {k: 0 for k in _COUNTER_FIELDS}
        self.durations = QuantileSketch()
        self._rng = random.Random(self.config.seed)
        self._decisions: dict[int, str] = {}
        self._buffers: dict[int, list] = {}
        self._reservoir: list[int] = []  # trace ids, slot-ordered
        self._reservoir_buffers: dict[int, list] = {}
        self._reservoir_seen = 0
        self._last_alert: float | None = None
        self._finished = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def bind(self, tracer: "Tracer") -> None:
        """Attach to the tracer whose records this sampler filters."""
        self.tracer = tracer

    @property
    def _monitor(self):
        return self.tracer.monitor if self.tracer is not None else None

    def _count(self, field: str, amount: int = 1) -> None:
        self.stats[field] += amount
        monitor = self._monitor
        if monitor is not None:
            monitor.counter(f"obs.sampling.{field}").add(amount)

    def note_alert(self, now: float) -> None:
        """An SLO alert fired at ``now`` (called by the evaluator);
        traces overlapping it are tail-kept."""
        self._last_alert = now

    # ------------------------------------------------------------------
    # the record path (called by Tracer)
    # ------------------------------------------------------------------
    def offer(self, record) -> None:
        """Route one freshly-created record: retain, buffer, or drop."""
        is_span = isinstance(record, SpanRecord)
        if is_span:
            self._count("spans_emitted")
            if record.parent_id is None:
                self._offer_root(record)
                return
        decision = self._decisions.get(record.trace_id)
        if decision == _KEEP:
            self._retain(record)
        elif record.trace_id in self._buffers:
            self._buffers[record.trace_id].append(record)
        elif decision == _RESERVOIR:
            self._reservoir_buffers[record.trace_id].append(record)
        elif decision == _DROP:
            if is_span:
                self._count("spans_dropped")
        else:
            # free-floating events (slo.*, faults.*) open their own
            # trace ids with no root span: always retained.  Spans of a
            # forgotten (evicted) trace land here too -- retain rather
            # than guess.
            self._retain(record)

    def _offer_root(self, record: SpanRecord) -> None:
        self._count("traces_emitted")
        key = record.attrs.get("sampling_key", record.trace_id)
        if self._head_keep(key):
            self._decide(record.trace_id, _KEEP)
            self._count("head_kept")
            self._count("traces_retained")
            record.attrs.setdefault("sampled", "head")
            self._retain(record)
            return
        self._buffers[record.trace_id] = [record]

    def _head_keep(self, key) -> bool:
        rate = self.config.head_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        digest = hashlib.blake2b(f"{self.config.seed}:{key}".encode(),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big") < rate * 2.0 ** 64

    def _retain(self, record) -> None:
        self.tracer._append(record)
        if isinstance(record, SpanRecord):
            self._count("spans_retained")

    def _decide(self, trace_id: int, decision: str) -> None:
        self._decisions[trace_id] = decision
        while len(self._decisions) > _MAX_DECISIONS:
            self._decisions.pop(next(iter(self._decisions)))

    # ------------------------------------------------------------------
    # tail decisions (called by Span.end via Tracer)
    # ------------------------------------------------------------------
    def on_span_end(self, record: SpanRecord) -> None:
        """A span closed; roots trigger the trace's tail decision."""
        if record.parent_id is not None:
            return
        self.durations.observe(record.duration_s)
        buffer = self._buffers.pop(record.trace_id, None)
        if buffer is None:
            return  # head-kept (already retained) or a replayed end
        reason = self._tail_reason(record, buffer)
        if reason is not None:
            self._count("tail_kept")
            self._flush(record.trace_id, buffer, f"tail:{reason}")
        else:
            self._offer_exemplar(record.trace_id, buffer)

    def _tail_reason(self, root: SpanRecord, buffer: list) -> str | None:
        if any(isinstance(r, SpanRecord) and r.status != "ok" for r in buffer):
            return "error"
        if (self._last_alert is not None
                and self._last_alert >= root.start_s - _ALERT_WINDOW_S):
            return "alert"
        if self.durations.count >= _MIN_SLOW_SAMPLES:
            # the quantile estimate is within alpha of a real observed
            # duration, so a root must clear it by the error band to
            # count as an outlier -- otherwise homogeneous workloads
            # (every duration in one bucket) flag every trace as slow
            threshold = (self.durations.quantile(_SLOW_QUANTILE)
                         * (1.0 + 2.0 * QuantileSketch.alpha))
            if root.duration_s >= threshold > 0.0:
                return "slow"
        return None

    def _offer_exemplar(self, trace_id: int, buffer: list) -> None:
        """Seeded Algorithm-R reservoir over happy-path traces."""
        capacity = self.config.exemplar_capacity
        self._reservoir_seen += 1
        if capacity > 0 and len(self._reservoir) < capacity:
            self._reservoir.append(trace_id)
            self._reservoir_buffers[trace_id] = buffer
            self._decide(trace_id, _RESERVOIR)
            return
        slot = self._rng.randrange(self._reservoir_seen) if capacity > 0 else 0
        if capacity > 0 and slot < capacity:
            evicted = self._reservoir[slot]
            self._reservoir[slot] = trace_id
            self._drop(evicted, self._reservoir_buffers.pop(evicted))
            self._reservoir_buffers[trace_id] = buffer
            self._decide(trace_id, _RESERVOIR)
        else:
            self._drop(trace_id, buffer)

    def _drop(self, trace_id: int, buffer: list) -> None:
        self._decide(trace_id, _DROP)
        self._count("traces_dropped")
        spans = sum(1 for r in buffer if isinstance(r, SpanRecord))
        if spans:
            self._count("spans_dropped", spans)

    def _flush(self, trace_id: int, buffer: list, reason: str) -> None:
        self._decide(trace_id, _KEEP)
        self._count("traces_retained")
        root = buffer[0]
        if isinstance(root, SpanRecord):
            root.attrs.setdefault("sampled", reason)
        for record in buffer:
            self._retain(record)

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Flush deferred retention (idempotent): exemplar-reservoir
        traces, then still-open buffered traces (their root never
        ended -- retained for debuggability)."""
        if self._finished:
            return
        self._finished = True
        for trace_id in sorted(self._reservoir_buffers):
            self._count("exemplars_kept")
            self._flush(trace_id, self._reservoir_buffers[trace_id], "exemplar")
        self._reservoir_buffers.clear()
        self._reservoir.clear()
        for trace_id in sorted(self._buffers):
            self._count("tail_kept")
            self._flush(trace_id, self._buffers[trace_id], "tail:open")
        self._buffers.clear()

    def reset(self) -> None:
        """Forget all state (between benchmark repetitions)."""
        self.stats = {k: 0 for k in _COUNTER_FIELDS}
        self.durations = QuantileSketch()
        self._rng = random.Random(self.config.seed)
        self._decisions.clear()
        self._buffers.clear()
        self._reservoir = []
        self._reservoir_buffers = {}
        self._reservoir_seen = 0
        self._last_alert = None
        self._finished = False

    def summary_event(self, trace_id: int, time_s: float) -> TraceEvent:
        """The end-of-run ``obs.sampling.summary`` event (stats + config)."""
        attrs = dict(self.stats)
        attrs["head_rate"] = self.config.head_rate
        attrs["exemplar_capacity"] = self.config.exemplar_capacity
        return TraceEvent(trace_id, None, "obs.sampling.summary", time_s, attrs)
