"""Grid health dashboard: ``python -m repro.observability dashboard TRACE``.

Renders, from one exported trace, everything an operator would ask of a
run after the fact:

* **activity** -- per-subsystem sparklines of span/event density over
  the run's time axis (where was the system busy, and when);
* **SLO status** -- one row per SLO seen in ``slo.sample`` events: the
  latest value against its objective, the breach fraction, and the
  sampled-value sparkline (the :class:`~repro.observability.slo.SLOEvaluator`
  emits these when tracing is on);
* **alert timeline** -- every ``slo.fire`` / ``slo.resolve`` interleaved
  with ``faults.inject`` / ``faults.recover``, so alerts line up with
  the faults that caused them;
* **query cost ledger** -- one row per query with its end-to-end
  latency, energy, bytes-on-air, hops, and uplink/grid usage (the
  :class:`~repro.observability.ledger.QueryCostLedger` fold of the same
  trace);
* **sampling** -- retained-vs-emitted trace/span counts and keep
  reasons from ``obs.sampling.summary`` events (exhaustive runs say
  so);
* **verdict** -- the health verdict reconstructed from the last sample
  of each SLO.

All rendering reuses :mod:`repro.reporting` (``sparkline``,
``format_table``); the input is the same JSONL the ``report`` command
reads, so one export feeds both.
"""

from __future__ import annotations

import math
import typing

from repro.observability.analysis import Trace
from repro.observability.ledger import render_ledger
from repro.observability.tracer import TraceEvent
from repro.reporting import format_table, sparkline


def _time_range(trace: Trace) -> tuple[float, float]:
    """The run's [first, last] virtual-time extent across all records."""
    times: list[float] = []
    for span in trace.spans:
        times.append(span.start_s)
        if span.end_s is not None:
            times.append(span.end_s)
    times.extend(ev.time_s for ev in trace.events)
    if not times:
        return (0.0, 0.0)
    return (min(times), max(times))


def _bucketize(times: typing.Sequence[float], t0: float, t1: float,
               n_buckets: int) -> list[int]:
    """Histogram ``times`` into ``n_buckets`` equal buckets of [t0, t1]."""
    counts = [0] * n_buckets
    span = max(t1 - t0, 1e-300)
    for t in times:
        idx = min(int((t - t0) / span * n_buckets), n_buckets - 1)
        counts[idx] += 1
    return counts


def render_activity(trace: Trace, width: int = 48) -> str:
    """Per-subsystem activity sparklines over the run's time axis."""
    t0, t1 = _time_range(trace)
    by_subsystem: dict[str, list[float]] = {}
    for span in trace.spans:
        by_subsystem.setdefault(span.subsystem, []).append(span.start_s)
    for ev in trace.events:
        by_subsystem.setdefault(ev.subsystem, []).append(ev.time_s)
    if not by_subsystem:
        return "activity: no records"
    lines = [f"activity (spans+events per bucket, t = {t0:.6g} .. {t1:.6g} s):"]
    name_w = max(len(n) for n in by_subsystem) + 2
    for name in sorted(by_subsystem):
        times = by_subsystem[name]
        counts = _bucketize(times, t0, t1, width)
        lines.append(f"  {name:<{name_w}}{sparkline(counts)}  ({len(times)})")
    return "\n".join(lines)


def _slo_samples(trace: Trace) -> dict[str, list[TraceEvent]]:
    """``slo.sample`` events grouped by SLO name, in time order."""
    grouped: dict[str, list[TraceEvent]] = {}
    for ev in trace.events:
        if ev.name == "slo.sample" and "slo" in ev.attrs:
            grouped.setdefault(str(ev.attrs["slo"]), []).append(ev)
    for samples in grouped.values():
        samples.sort(key=lambda e: e.time_s)
    return grouped


def render_slos(trace: Trace) -> str:
    """SLO status table from the trace's ``slo.sample`` events."""
    grouped = _slo_samples(trace)
    if not grouped:
        return ("SLOs: no slo.sample events in this trace "
                "(run with an SLOEvaluator attached and tracing on)")
    rows = []
    for name in sorted(grouped):
        samples = grouped[name]
        values = [float(s.attrs.get("value", math.nan)) for s in samples]
        breaches = [bool(s.attrs.get("breached")) for s in samples]
        last = samples[-1]
        objective = (f"{last.attrs.get('comparison', '<=')} "
                     f"{float(last.attrs.get('objective', math.nan)):g}")
        breach_frac = sum(breaches) / len(breaches)
        rows.append([name, objective, f"{values[-1]:.4g}",
                     f"{breach_frac:.3f}",
                     "FIRING" if breaches[-1] else "ok",
                     "  " + (sparkline(values) or "-")])
    return "\n".join([
        "SLOs (from slo.sample events):",
        format_table(["slo", "objective", "last", "breach frac", "state", "trend"],
                     rows, width=16),
    ])


#: Event names that belong on the alert timeline, with display labels.
_TIMELINE_EVENTS = {
    "slo.fire": "ALERT fire",
    "slo.resolve": "alert resolve",
    "faults.inject": "fault inject",
    "faults.recover": "fault recover",
    "disc.broker_down": "BROKER down",
    "disc.promote": "broker promote",
}


def render_alerts(trace: Trace) -> str:
    """Chronological alert timeline, interleaved with fault transitions."""
    rows = []
    for ev in trace.events:
        label = _TIMELINE_EVENTS.get(ev.name)
        if label is None:
            continue
        if ev.name.startswith("slo."):
            detail = (f"{ev.attrs.get('slo')} value={float(ev.attrs.get('value', math.nan)):.4g} "
                      f"(objective {ev.attrs.get('comparison', '<=')} "
                      f"{float(ev.attrs.get('objective', math.nan)):g}, "
                      f"{ev.attrs.get('severity', '?')})")
        else:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(ev.attrs.items()))
        rows.append((ev.time_s, label, detail))
    if not rows:
        return "alert timeline: empty (no slo.*, faults.* or disc.* transitions)"
    rows.sort(key=lambda r: r[0])
    lines = ["alert timeline:"]
    for t, label, detail in rows:
        lines.append(f"  t={t:9.2f} s  {label:<14} {detail}")
    return "\n".join(lines)


def render_sampling(trace: Trace) -> str:
    """Trace-sampling summary from ``obs.sampling.summary`` events.

    Merged parallel traces carry one summary per trial world; the counts
    aggregate (they are disjoint per-world tallies).
    """
    summaries = [ev for ev in trace.events if ev.name == "obs.sampling.summary"]
    if not summaries:
        return ("sampling: exhaustive (no obs.sampling.summary events -- "
                "run with a TraceSampler to bound trace memory)")
    totals: dict[str, float] = {}
    for ev in summaries:
        for key, value in ev.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
    emitted = int(totals.get("traces_emitted", 0))
    retained = int(totals.get("traces_retained", 0))
    frac = retained / emitted if emitted else math.nan
    lines = [
        f"sampling: {retained}/{emitted} traces retained ({frac:.1%})"
        if emitted else "sampling: on (no traces emitted)",
    ]
    rows = [
        ["traces", int(totals.get("traces_emitted", 0)),
         int(totals.get("traces_retained", 0)),
         int(totals.get("traces_dropped", 0))],
        ["spans", int(totals.get("spans_emitted", 0)),
         int(totals.get("spans_retained", 0)),
         int(totals.get("spans_dropped", 0))],
    ]
    lines.append(format_table(["kind", "emitted", "retained", "dropped"],
                              rows, width=10))
    lines.append(
        f"  kept: head={int(totals.get('head_kept', 0))}  "
        f"tail={int(totals.get('tail_kept', 0))}  "
        f"exemplar={int(totals.get('exemplars_kept', 0))}  "
        f"budget-deferred={int(totals.get('budget_deferred', 0))}")
    return "\n".join(lines)


def render_verdict(trace: Trace) -> str:
    """Health verdict reconstructed from each SLO's final sample."""
    grouped = _slo_samples(trace)
    if not grouped:
        return "verdict: unknown (no SLO samples)"
    firing_page, firing, breached_ever = [], [], []
    for name, samples in grouped.items():
        last = samples[-1]
        if any(bool(s.attrs.get("breached")) for s in samples):
            breached_ever.append(name)
        if bool(last.attrs.get("breached")):
            firing.append(name)
            if last.attrs.get("severity") == "page":
                firing_page.append(name)
    if firing_page:
        verdict = "CRITICAL"
    elif firing or breached_ever:
        verdict = "DEGRADED"
    else:
        verdict = "HEALTHY"
    suffix = f"  (firing: {', '.join(sorted(firing))})" if firing else ""
    return f"verdict: {verdict}{suffix}"


def render_dashboard(trace: Trace, width: int = 48) -> str:
    """The whole dashboard body."""
    t0, t1 = _time_range(trace)
    header = (f"trace: {len(trace.spans)} spans, {len(trace.events)} events, "
              f"{t1 - t0:.6g} s of simulated time")
    return "\n\n".join([
        header,
        render_activity(trace, width=width),
        render_slos(trace),
        render_alerts(trace),
        render_ledger(trace),
        render_sampling(trace),
        render_verdict(trace),
    ])
