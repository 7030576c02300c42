"""Service-level objectives over the canonical metric catalog.

The paper's central claims are *service-level* statements -- queries stay
interactive, in-network execution saves energy, compositions degrade
gracefully -- but counters and traces only describe; nothing turned them
into verdicts.  This module legislates the verdict layer:

* :class:`Signal` -- how to compute one number from a
  :class:`~repro.simkernel.monitor.Monitor` over a sliding window of
  *simulated* time (counter deltas/rates, counter ratios, histogram
  percentiles, series/probe means, gauge last-values);
* :class:`SLO` -- a named objective over a signal
  (``value <= objective`` or ``value >= objective``), with a window
  length and a severity (``page`` beats ``warn``);
* :class:`SLOEvaluator` -- driven from the sim kernel
  (:meth:`~SLOEvaluator.start` schedules evaluation ticks), it ingests
  new instrument data each tick, evaluates every SLO over its window,
  and runs the alert state machine.  Alert transitions are recorded as
  ``slo.fire`` / ``slo.resolve`` trace events, counted under ``slo.*``
  monitor counters, and kept on an :attr:`~SLOEvaluator.timeline`
  exactly like the fault injector's;
* :func:`SLOEvaluator.health` -- per-subsystem health scores folded into
  a single grid verdict (``healthy`` / ``degraded`` / ``critical``);
  :func:`render_health` renders it for the examples and benchmarks.

Everything is deterministic: evaluation ticks are ordinary simulator
events, signals are pure functions of the monitor, and no wall-clock or
RNG is consulted, so the same seed always produces the same alert
timeline.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import typing

import numpy as np

from repro import checks
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.simkernel.monitor import Monitor

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.simulator import Simulator

#: Signal kinds (how a window of samples reduces to one number).
SIGNAL_KINDS = ("delta", "rate", "ratio", "percentile", "mean", "last")
#: Alert severities, most severe first.
SEVERITIES = ("page", "warn")
#: Supported objective comparisons.
COMPARISONS = ("<=", ">=")
#: Health verdicts, best to worst.
VERDICTS = ("healthy", "degraded", "critical")


@dataclasses.dataclass(frozen=True)
class Signal:
    """One number computed from a monitor over a sliding window.

    Parameters
    ----------
    kind:
        * ``"delta"`` -- growth of counter ``source`` inside the window;
        * ``"rate"`` -- that growth divided by the window length (per s);
        * ``"ratio"`` -- counter growth of ``source`` divided by counter
          growth of ``denominator`` (``None`` while the denominator is 0);
        * ``"percentile"`` -- the ``q``-th percentile of histogram
          observations recorded inside the window;
        * ``"mean"`` -- arithmetic mean of series/probe samples inside
          the window;
        * ``"last"`` -- the most recent sample (gauges, probes).
    source:
        Monitor instrument name, or a probe name registered with
        :meth:`SLOEvaluator.probe`.  With ``prefix=True`` the source is
        a counter-name *prefix* and matching counters are summed
        (``"queries.failed."`` catches every failure reason).
    denominator:
        Second counter for ``"ratio"`` (always an exact name).
    q:
        Percentile for ``"percentile"``.
    """

    kind: str
    source: str
    denominator: str | None = None
    q: float | None = None
    prefix: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"signal kind must be one of {SIGNAL_KINDS}")
        if self.kind == "ratio" and not self.denominator:
            raise ValueError("ratio signals need a denominator")
        if self.kind == "percentile" and self.q is None:
            raise ValueError("percentile signals need q")
        if self.q is not None:
            checks.fraction("q", self.q, high=100.0)
        if self.prefix and self.kind not in ("delta", "rate", "ratio"):
            raise ValueError("prefix sources only make sense for counter signals")

    def sources(self) -> tuple[str, ...]:
        """Every instrument/probe this signal reads."""
        return (self.source,) if self.denominator is None else (self.source, self.denominator)


@dataclasses.dataclass(frozen=True)
class SLO:
    """A named objective: ``signal <comparison> objective`` over a window.

    The name follows the metric conventions
    (``<subsystem>.<noun>``); the subsystem prefix is what health
    scoring groups by.
    """

    name: str
    description: str
    signal: Signal
    objective: float
    comparison: str = "<="
    window_s: float = 120.0
    severity: str = "page"
    unit: str = "1"

    def __post_init__(self) -> None:
        if "." not in self.name:
            raise ValueError("SLO names are '<subsystem>.<noun>'")
        if self.comparison not in COMPARISONS:
            raise ValueError(f"comparison must be one of {COMPARISONS}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be one of {SEVERITIES}")
        checks.finite("objective", self.objective)
        checks.positive("window_s", self.window_s)

    @property
    def subsystem(self) -> str:
        return self.name.split(".", 1)[0]

    def met(self, value: float) -> bool:
        """Does ``value`` satisfy the objective?"""
        if self.comparison == "<=":
            return value <= self.objective
        return value >= self.objective


@dataclasses.dataclass(frozen=True)
class AlertEvent:
    """One alert transition, in simulated time (cf. ``FaultEvent``)."""

    time_s: float
    slo: str
    phase: str  # "fire" | "resolve"
    value: float
    objective: float
    severity: str


@dataclasses.dataclass
class SLOStatus:
    """Rolling evaluation state for one SLO."""

    slo: SLO
    value: float | None = None  #: latest evaluated value (None = no data)
    firing: bool = False
    fired: int = 0
    resolved: int = 0
    breached_ticks: int = 0
    ticks: int = 0
    #: Recent evaluated values (NaN where there was no data), for sparklines.
    history: collections.deque = dataclasses.field(
        default_factory=lambda: collections.deque(maxlen=96))

    @property
    def compliance(self) -> float:
        """Fraction of evaluation ticks that met the objective (1.0 before
        any tick: no evidence of breach)."""
        if self.ticks == 0:
            return 1.0
        return 1.0 - self.breached_ticks / self.ticks


@dataclasses.dataclass(frozen=True)
class SubsystemHealth:
    """Health of one subsystem: severity-weighted compliance + live alerts."""

    subsystem: str
    score: float
    firing: tuple[str, ...]
    status: str


@dataclasses.dataclass(frozen=True)
class GridHealth:
    """The whole grid's verdict: the worst subsystem wins."""

    verdict: str
    subsystems: tuple[SubsystemHealth, ...]

    @property
    def firing(self) -> tuple[str, ...]:
        """Names of every currently-firing SLO, across subsystems."""
        return tuple(name for sub in self.subsystems for name in sub.firing)


class _SourceWindow:
    """Timestamped entries for one signal source, pruned to ``keep_s``.

    Each entry is ``(t, total, count, last, sketch)``: a plain sample is
    ``(t, v, 1, v, None)``; high-volume instrument data arrives as one
    *aggregate* entry per evaluation tick carrying the interval's sum,
    count, last value, and a delta :class:`QuantileSketch`, so window
    memory is bounded by tick count, not observation count.
    """

    __slots__ = ("keep_s", "samples")

    def __init__(self, keep_s: float) -> None:
        self.keep_s = keep_s
        self.samples: collections.deque[tuple] = collections.deque()

    def append(self, time_s: float, value: float) -> None:
        self.samples.append((time_s, value, 1, value, None))

    def append_aggregate(self, time_s: float, total: float, count: int,
                         last: float, sketch) -> None:
        self.samples.append((time_s, total, count, last, sketch))

    def prune(self, now: float) -> None:
        cutoff = now - self.keep_s
        while self.samples and self.samples[0][0] < cutoff:
            self.samples.popleft()

    def since(self, cutoff: float) -> list[tuple]:
        """Entries with ``t >= cutoff`` (window membership)."""
        return [e for e in self.samples if e[0] >= cutoff]

    def last(self) -> float | None:
        return self.samples[-1][3] if self.samples else None


class SLOEvaluator:
    """Evaluates SLOs over sliding windows, driven from the sim kernel.

    Parameters
    ----------
    sim / monitor:
        The run's clock and instrument registry.
    slos:
        Objectives to watch (names must be unique).
    interval_s:
        Evaluation cadence in simulated seconds.
    tracer:
        Span/event sink; alert transitions become ``slo.fire`` /
        ``slo.resolve`` events and every evaluation emits a
        ``slo.sample`` event the dashboard renders (only when the tracer
        is enabled).

    Attributes
    ----------
    status:
        ``{slo name: SLOStatus}`` rolling state.
    timeline:
        Chronological :class:`AlertEvent` list (fires and resolutions).
    """

    def __init__(
        self,
        sim: "Simulator",
        monitor: Monitor,
        slos: typing.Sequence[SLO],
        *,
        interval_s: float = 15.0,
        tracer: Tracer | None = None,
    ) -> None:
        if not slos:
            raise ValueError("an evaluator needs at least one SLO")
        names = [s.name for s in slos]
        if len(set(names)) != len(names):
            raise ValueError("SLO names must be unique")
        self.sim = sim
        self.monitor = monitor
        self.slos = list(slos)
        self.interval_s = float(checks.positive("interval_s", interval_s))
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.status: dict[str, SLOStatus] = {s.name: SLOStatus(s) for s in self.slos}
        self.timeline: list[AlertEvent] = []
        self._probes: dict[str, typing.Callable[[], float]] = {}
        # one window per source, sized for the longest window reading it
        keep: dict[str, float] = {}
        for slo in self.slos:
            for source in slo.signal.sources():
                keep[source] = max(keep.get(source, 0.0), slo.window_s)
        self._windows = {src: _SourceWindow(keep_s) for src, keep_s in keep.items()}
        self._prefixes = {
            slo.signal.source for slo in self.slos if slo.signal.prefix
        }
        # sources read as counters (delta/rate/ratio); only these fall back
        # to the counter path when no instrument exists yet -- a "last" or
        # "mean" source with no instrument honestly has no data
        self._counter_sources: set[str] = set()
        for slo in self.slos:
            if slo.signal.kind in ("delta", "rate", "ratio"):
                self._counter_sources.update(slo.signal.sources())
        self._counter_cursor: dict[str, float] = {}
        # per histogram/series source: observations already ingested
        self._raw_cursor: dict[str, int] = {}
        # per-source (count, sketch copy, sum) snapshot from the last
        # tick, so a tick that outran the instrument's raw tail can
        # ingest an exact delta sketch instead of the lost raw values
        self._sketch_snapshots: dict[str, tuple[int, typing.Any, float]] = {}
        self._until: float | None = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def probe(self, name: str, fn: typing.Callable[[], float]) -> "SLOEvaluator":
        """Register a callable sampled once per tick under ``name``.

        Probes cover health signals no instrument records continuously
        (uplink availability, breaker-open fraction); signals read them
        by name exactly like monitor series."""
        self._probes[name] = fn
        return self

    def start(self, until_s: float) -> "SLOEvaluator":
        """Schedule evaluation ticks every ``interval_s`` up to ``until_s``.

        Ticks are ordinary simulator events; each reschedules the next,
        so the heap holds at most one pending tick and an exhausted-heap
        ``run()`` still terminates."""
        if not (math.isfinite(until_s) and until_s >= self.sim.now):
            raise ValueError("until_s must be finite and >= now")
        self._until = float(until_s)
        self.sim.schedule(self.interval_s, self._tick_event, label="slo.tick")
        return self

    def _tick_event(self) -> None:
        self.tick()
        if self._until is not None and self.sim.now + self.interval_s <= self._until:
            self.sim.schedule(self.interval_s, self._tick_event, label="slo.tick")

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def _counter_total(self, source: str, prefix: bool) -> float:
        counters = self.monitor._counters
        if prefix:
            return sum(c.value for name, c in counters.items() if name.startswith(source))
        counter = counters.get(source)
        return counter.value if counter is not None else 0.0

    def _ingest_bounded(self, window: _SourceWindow, source: str, inst,
                        now: float, times: bool) -> None:
        """Pull new data from a histogram/series without unbounded reads.

        While every new observation is still in the instrument's exact
        raw tail, ingest per-sample entries (``times=True`` keeps the
        series' own sample timestamps) -- identical to the historical
        raw-list behavior.  When recording outran the tail between
        ticks, ingest *one* aggregate entry instead: the interval's
        exact sum/count plus a delta sketch diffed against last tick's
        snapshot, so percentile signals stay within the sketch's error
        bound at any volume.
        """
        inst.ensure_sketch()
        total = len(inst)
        seen = self._raw_cursor.get(source, 0)
        if total > seen:
            unseen = inst.raw_after(seen)
            if unseen is None:
                snap = self._sketch_snapshots.get(source)
                delta = inst.sketch.diff(snap[1] if snap else None)
                prev_sum = snap[2] if snap else 0.0
                total_sum = inst.sketch.sum
                window.append_aggregate(now, total_sum - prev_sum, total - seen,
                                        float(inst.sketch.last), delta)
            elif times:
                for t, v in unseen:
                    window.append(float(t), float(v))
            else:
                for v in unseen:
                    window.append(now, float(v))
            self._raw_cursor[source] = total
        snap = self._sketch_snapshots.get(source)
        if snap is None or snap[0] != total:
            self._sketch_snapshots[source] = (total, inst.sketch.copy(),
                                              inst.sketch.sum)

    def _ingest(self, now: float) -> None:
        for source, window in self._windows.items():
            if source in self._probes:
                window.append(now, float(self._probes[source]()))
            elif source in self.monitor._histograms:
                self._ingest_bounded(window, source,
                                     self.monitor._histograms[source],
                                     now, times=False)
            elif source in self.monitor._series:
                self._ingest_bounded(window, source,
                                     self.monitor._series[source],
                                     now, times=True)
            elif source in self.monitor._gauges:
                gauge = self.monitor._gauges[source]
                if gauge.updates:
                    window.append(now, gauge.value)
            elif source in self._counter_sources:
                # counter, counter prefix, or a counter not yet created
                total = self._counter_total(source, source in self._prefixes)
                last = self._counter_cursor.get(source, 0.0)
                window.append(now, total - last)
                self._counter_cursor[source] = total
            # else: a gauge/series/histogram source that does not exist
            # yet -- no sample, the signal evaluates to "no data"
            window.prune(now)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    @staticmethod
    def _window_sum(entries: list[tuple]) -> float:
        return float(sum(e[1] for e in entries))

    def _evaluate(self, slo: SLO, now: float) -> float | None:
        sig = slo.signal
        cutoff = now - slo.window_s
        window = self._windows[sig.source]
        if sig.kind == "delta":
            return self._window_sum(window.since(cutoff))
        if sig.kind == "rate":
            return self._window_sum(window.since(cutoff)) / slo.window_s
        if sig.kind == "ratio":
            den = self._window_sum(self._windows[sig.denominator].since(cutoff))
            if den == 0:
                return None
            return self._window_sum(window.since(cutoff)) / den
        entries = window.since(cutoff)
        if sig.kind == "percentile":
            if not entries:
                return None
            sketches = [e[4] for e in entries if e[4] is not None]
            if not sketches:
                # every entry is a plain sample: exact numpy percentile,
                # the historical low-volume behavior
                return float(np.percentile([e[1] for e in entries], sig.q))
            merged = sketches[0].copy()
            for e in entries:
                if e[4] is None:
                    merged.observe(e[1])
                elif e[4] is not sketches[0]:
                    merged.merge(e[4])
            return float(merged.percentile(sig.q))
        if sig.kind == "mean":
            if not entries:
                return None
            count = sum(e[2] for e in entries)
            if count == len(entries):
                # plain samples only: keep the historical numpy mean
                return float(np.mean([e[1] for e in entries]))
            return self._window_sum(entries) / count
        # "last": the most recent sample ever (gauges stay meaningful
        # between sparse updates), not just within the window
        return window.last()

    def tick(self) -> None:
        """Ingest new instrument data and evaluate every SLO now.

        Normally fired by the kernel (see :meth:`start`); examples call
        it directly once more before rendering a final verdict."""
        now = self.sim.now
        self._ingest(now)
        self.monitor.counter("slo.evaluations").add(1)
        tracing = self.tracer.enabled
        # tail-based trace sampling keeps every trace that overlaps an
        # SLO violation; the sampler (when wired) learns of alerts here
        sampler = getattr(self.tracer, "sampler", None)
        n_firing = 0
        for slo in self.slos:
            status = self.status[slo.name]
            value = self._evaluate(slo, now)
            status.value = value
            status.ticks += 1
            breached = value is not None and not slo.met(value)
            status.history.append(value if value is not None else math.nan)
            if breached:
                status.breached_ticks += 1
            if breached and not status.firing:
                status.firing = True
                status.fired += 1
                self.monitor.counter("slo.alerts_fired").add(1)
                self.timeline.append(AlertEvent(now, slo.name, "fire", value,
                                                slo.objective, slo.severity))
                if sampler is not None:
                    sampler.note_alert(now)
                if tracing:
                    self.tracer.event("slo.fire", slo=slo.name, value=value,
                                      objective=slo.objective,
                                      comparison=slo.comparison,
                                      severity=slo.severity)
            elif not breached and status.firing and value is not None:
                status.firing = False
                status.resolved += 1
                self.monitor.counter("slo.alerts_resolved").add(1)
                self.timeline.append(AlertEvent(now, slo.name, "resolve", value,
                                                slo.objective, slo.severity))
                if tracing:
                    self.tracer.event("slo.resolve", slo=slo.name, value=value,
                                      objective=slo.objective,
                                      comparison=slo.comparison,
                                      severity=slo.severity)
            if status.firing:
                n_firing += 1
            if tracing and value is not None:
                self.tracer.event("slo.sample", slo=slo.name, value=value,
                                  objective=slo.objective,
                                  comparison=slo.comparison,
                                  severity=slo.severity, breached=breached)
        self.monitor.series("slo.breached").record(now, float(n_firing))

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    def health(self) -> GridHealth:
        """Fold rolling SLO state into per-subsystem scores and a verdict.

        A subsystem is ``critical`` while any of its page-severity SLOs
        fires, ``degraded`` while any SLO fires or compliance dipped,
        else ``healthy``; the grid verdict is the worst subsystem's.
        Scores are severity-weighted mean compliance (page 1.0, warn 0.5).
        """
        weight = {"page": 1.0, "warn": 0.5}
        by_subsystem: dict[str, list[SLOStatus]] = {}
        for status in self.status.values():
            by_subsystem.setdefault(status.slo.subsystem, []).append(status)
        subsystems = []
        for name in sorted(by_subsystem):
            statuses = by_subsystem[name]
            total_w = sum(weight[s.slo.severity] for s in statuses)
            score = sum(weight[s.slo.severity] * s.compliance for s in statuses) / total_w
            firing = tuple(s.slo.name for s in statuses if s.firing)
            if any(s.firing and s.slo.severity == "page" for s in statuses):
                state = "critical"
            elif firing or score < 1.0:
                state = "degraded"
            else:
                state = "healthy"
            subsystems.append(SubsystemHealth(name, score, firing, state))
        verdict = VERDICTS[max((VERDICTS.index(s.status) for s in subsystems), default=0)]
        return GridHealth(verdict, tuple(subsystems))


# ----------------------------------------------------------------------
# the default objective catalog
# ----------------------------------------------------------------------
def default_slos() -> list[SLO]:
    """The canonical grid objectives over the §4 query pipeline.

    ``grid.uplink_availability`` reads the ``grid.uplink_online`` probe
    that :meth:`repro.core.runtime.PervasiveGridRuntime.attach_slos`
    registers; without the probe it simply reports no data.  The
    :func:`discovery_slos` and :func:`wms_slos` ride along -- they are
    equally no-data-safe, so worlds without replicated discovery or a
    workload manager never see them breach.
    """
    return _grid_slos() + discovery_slos() + wms_slos()


def _grid_slos() -> list[SLO]:
    return [
        SLO("queries.latency_p95",
            "95th-percentile per-epoch turnaround stays interactive",
            Signal("percentile", "queries.latency", q=95.0),
            objective=10.0, comparison="<=", window_s=120.0,
            severity="warn", unit="s"),
        SLO("queries.failure_ratio",
            "failed epochs over executed epochs",
            Signal("ratio", "queries.failed.", denominator="queries.epochs",
                   prefix=True),
            objective=0.1, comparison="<=", window_s=120.0, severity="page"),
        SLO("energy.per_epoch",
            "sensor radio energy drawn per query epoch",
            Signal("ratio", "net.energy_j", denominator="queries.epochs"),
            objective=0.05, comparison="<=", window_s=180.0,
            severity="warn", unit="J"),
        SLO("grid.uplink_availability",
            "fraction of evaluation ticks the WAN uplink is online",
            Signal("mean", "grid.uplink_online"),
            objective=0.99, comparison=">=", window_s=60.0, severity="page"),
    ]


def discovery_slos() -> list[SLO]:
    """Objectives over the replicated, event-sourced discovery subsystem.

    ``disc.broker_availability`` and ``disc.staleness`` read the probes
    :meth:`repro.core.runtime.PervasiveGridRuntime.attach_slos`
    registers (active-broker liveness and the log tail no promotable
    broker has served yet); ``disc.lookup_p99`` and
    ``disc.failover_time`` read the canonical histograms.  During a
    broker failover the availability objective fires, then resolves
    once the promoted standby's window of ticks is clean again -- the
    E13-D benchmark and the disaster drill assert exactly that arc.
    """
    return [
        SLO("disc.lookup_p99",
            "99th-percentile discovery lookup turnaround",
            Signal("percentile", "disc.lookup_latency", q=99.0),
            objective=2.0, comparison="<=", window_s=120.0,
            severity="warn", unit="s"),
        SLO("disc.staleness",
            "log events no promotable broker view has applied yet",
            Signal("last", "disc.staleness"),
            objective=25.0, comparison="<=", window_s=60.0,
            severity="warn"),
        SLO("disc.failover_time",
            "worst outage from active-broker loss to standby promotion",
            Signal("percentile", "disc.failover_time", q=100.0),
            objective=30.0, comparison="<=", window_s=600.0,
            severity="warn", unit="s"),
        SLO("disc.broker_availability",
            "fraction of evaluation ticks an active broker is serving",
            Signal("mean", "disc.broker_online"),
            objective=0.99, comparison=">=", window_s=60.0,
            severity="page"),
    ]


def wms_slos() -> list[SLO]:
    """Objectives over the workload-management service.

    All three read ``wms.*`` instruments the
    :class:`~repro.wms.queues.TaskQueueService` records, and all are
    no-data-safe: a world without a workload manager records none of
    them, the ratio denominators stay 0, the histogram stays empty, and
    every objective reports no data instead of breaching.
    """
    return [
        SLO("wms.queue_latency_p95",
            "95th-percentile submit-to-dispatch wait stays responsive",
            Signal("percentile", "wms.queue_latency", q=95.0),
            objective=30.0, comparison="<=", window_s=120.0,
            severity="warn", unit="s"),
        SLO("wms.failure_ratio",
            "terminally-failed tasks over dispatched tasks",
            Signal("ratio", "wms.tasks_failed",
                   denominator="wms.tasks_dispatched"),
            objective=0.1, comparison="<=", window_s=120.0, severity="page"),
        SLO("wms.starvation",
            "starvation episodes per dispatched task (should be zero)",
            Signal("ratio", "wms.tasks_starved",
                   denominator="wms.tasks_dispatched"),
            objective=0.0, comparison="<=", window_s=300.0,
            severity="warn"),
    ]


def breaker_slo(threshold: float = 0.34, window_s: float = 60.0) -> SLO:
    """Breaker-open fraction objective (reads the
    ``resilience.breaker_open_fraction`` probe; see
    :meth:`SLOEvaluator.probe`)."""
    return SLO("resilience.breaker_open_fraction",
               "fraction of known providers whose breaker blocks traffic",
               Signal("last", "resilience.breaker_open_fraction"),
               objective=threshold, comparison="<=", window_s=window_s,
               severity="warn")


# ----------------------------------------------------------------------
# rendering (reuses repro.reporting, like the report CLI)
# ----------------------------------------------------------------------
def render_health(evaluator: SLOEvaluator, *, alerts: bool = True) -> str:
    """The grid health verdict as text: per-SLO table, per-subsystem
    scores, and (optionally) the alert timeline."""
    from repro.reporting import format_table, sparkline

    health = evaluator.health()
    lines = [f"grid health: {health.verdict.upper()}"
             + (f"  (firing: {', '.join(health.firing)})" if health.firing else "")]
    rows = []
    for name in sorted(evaluator.status):
        st = evaluator.status[name]
        slo = st.slo
        current = "-" if st.value is None else f"{st.value:.4g}"
        trend = sparkline([v for v in st.history if not math.isnan(v)]) or "-"
        rows.append([name, f"{slo.comparison} {slo.objective:g}", current,
                     f"{st.compliance:.3f}",
                     "FIRING" if st.firing else "ok", "  " + trend])
    lines.append(format_table(
        ["slo", "objective", "current", "compliance", "state", "trend"],
        rows, width=16))
    sub_rows = [[s.subsystem, f"{s.score:.3f}", s.status] for s in health.subsystems]
    lines.append("")
    lines.append(format_table(["subsystem", "score", "status"], sub_rows, width=14))
    if alerts:
        lines.append("")
        if evaluator.timeline:
            lines.append("alerts:")
            for ev in evaluator.timeline:
                lines.append(f"  t={ev.time_s:7.1f} s  {ev.phase:<8} {ev.slo:<36} "
                             f"value={ev.value:.4g} (objective {ev.objective:g}, "
                             f"{ev.severity})")
        else:
            lines.append("alerts: none fired")
    return "\n".join(lines)
