"""Run analysis: the renderers behind ``python -m repro.observability report TRACE``.

For the selected root span of an exported trace (default: the longest
root) the report shows the critical path of its end-to-end latency, the
per-subsystem rollup, and the trace's event counts.  The same renderers
are reused by the examples to close each run with a "where did the time
go" table instead of a raw counter dump.

``--format json`` emits the same analysis as one JSON document
(:func:`report_dict`), for the dashboard, CI gates, and any other
machine consumer of rollups and critical paths.
"""

from __future__ import annotations

import typing

from repro.observability.analysis import (
    PathSegment,
    Trace,
    critical_path,
    event_counts,
    self_times,
    subsystem_rollup,
)
from repro.observability.tracer import SpanRecord
from repro.reporting import format_table


def pick_root(trace: Trace, name_prefix: str | None = None) -> SpanRecord | None:
    """The longest closed root span (optionally matching a name prefix)."""
    roots = [r for r in trace.roots() if r.end_s is not None]
    if name_prefix:
        roots = [r for r in roots if r.name.startswith(name_prefix)]
    if not roots:
        return None
    return max(roots, key=lambda s: (s.duration_s, -s.span_id))


def render_critical_path(trace: Trace, root: SpanRecord, max_rows: int = 30) -> str:
    """The critical path as an indented table; segments sum to 100%."""
    segments = critical_path(trace, root)
    total = max(root.duration_s, 1e-300)
    rows: list[list[typing.Any]] = []
    for seg in segments[:max_rows]:
        rows.append([
            "  " * seg.depth + seg.span.name,
            seg.start_s,
            seg.duration_s,
            100.0 * seg.duration_s / total,
        ])
    if len(segments) > max_rows:
        dropped = segments[max_rows:]
        rows.append([f"... {len(dropped)} more segments",
                     dropped[0].start_s,
                     sum(s.duration_s for s in dropped),
                     100.0 * sum(s.duration_s for s in dropped) / total])
    header = (f"critical path of {root.name!r} "
              f"(trace {root.trace_id}, {root.duration_s:.6g} s end-to-end)")
    table = format_table(["segment", "t_start (s)", "dt (s)", "% of total"],
                         rows, width=16)
    # left-align the segment column for readability of the indentation
    lines = [header, *table.splitlines()]
    return "\n".join(lines)


def render_rollup(trace: Trace, root: SpanRecord) -> str:
    """Per-subsystem critical-path share table for one root span."""
    rows = [
        [r["subsystem"], r["self_s"], 100.0 * r["share"], r["spans"]]
        for r in subsystem_rollup(trace, root)
    ]
    return "\n".join([
        f"latency by subsystem under {root.name!r}:",
        format_table(["subsystem", "self (s)", "% of total", "spans"], rows, width=14),
    ])


def render_self_times(trace: Trace, root: SpanRecord, top: int = 10) -> str:
    """Top-N span names by flame-graph *self* time under one root.

    The :func:`~repro.observability.analysis.self_times` attribution:
    each instant of the root's latency is charged to the innermost span
    covering it, so the full table sums to the root's duration exactly.
    """
    per_name = self_times(trace, root)
    total = max(root.duration_s, 1e-300)
    ranked = sorted(per_name.items(), key=lambda kv: (-kv[1], kv[0]))
    rows = [[name, secs, 100.0 * secs / total] for name, secs in ranked[:top]]
    lines = [f"self times under {root.name!r} (top {min(top, len(ranked))} "
             f"of {len(ranked)} span names):",
             format_table(["span", "self (s)", "% of total"], rows, width=18)]
    if len(ranked) > top:
        rest = sum(secs for _, secs in ranked[top:])
        lines.append(f"  ... {len(ranked) - top} more span names "
                     f"({rest:.6g} s, {100.0 * rest / total:.1f}%)")
    return "\n".join(lines)


def render_events(trace: Trace) -> str:
    """Event-name frequency table for the whole trace."""
    counts = event_counts(trace)
    if not counts:
        return "no events recorded"
    rows = [[name, count] for name, count in counts.items()]
    return "\n".join(["events:", format_table(["event", "count"], rows, width=34)])


def report_dict(trace: Trace, root_prefix: str | None = None) -> dict:
    """The full report as a JSON-serializable document (``--format json``).

    Mirrors :func:`render_report`: trace stats, the selected root's
    critical path and per-subsystem rollup (``None`` when no closed root
    matches), and the event counts.
    """
    root = pick_root(trace, root_prefix)
    doc: dict[str, typing.Any] = {
        "trace": {
            "spans": len(trace.spans),
            "events": len(trace.events),
            "trace_ids": len({s.trace_id for s in trace.spans}),
            "roots": len(trace.roots()),
        },
        "root": None,
        "critical_path": None,
        "rollup": None,
        "self_times": None,
        "events": dict(event_counts(trace)),
    }
    if root is not None:
        total = max(root.duration_s, 1e-300)
        doc["root"] = {
            "name": root.name,
            "trace_id": root.trace_id,
            "span_id": root.span_id,
            "start_s": root.start_s,
            "duration_s": root.duration_s,
        }
        doc["critical_path"] = [
            {
                "name": seg.span.name,
                "subsystem": seg.span.subsystem,
                "depth": seg.depth,
                "start_s": seg.start_s,
                "duration_s": seg.duration_s,
                "share": seg.duration_s / total,
            }
            for seg in critical_path(trace, root)
        ]
        doc["rollup"] = [dict(r) for r in subsystem_rollup(trace, root)]
        doc["self_times"] = [
            {"name": name, "self_s": secs, "share": secs / total}
            for name, secs in sorted(self_times(trace, root).items(),
                                     key=lambda kv: (-kv[1], kv[0]))
        ]
    return doc


def render_report(trace: Trace, root_prefix: str | None = None,
                  self_times_top: int = 0) -> str:
    """The full report body (used by the CLI and the examples).

    ``self_times_top > 0`` appends the top-N self-time table
    (:func:`render_self_times`) after the rollup.
    """
    n_traces = len({s.trace_id for s in trace.spans})
    parts = [
        f"trace: {len(trace.spans)} spans, {len(trace.events)} events, "
        f"{n_traces} trace ids, {len(trace.roots())} roots",
    ]
    root = pick_root(trace, root_prefix)
    if root is None:
        parts.append("no closed root span to analyze"
                     + (f" (prefix {root_prefix!r})" if root_prefix else ""))
    else:
        parts.append("")
        parts.append(render_critical_path(trace, root))
        parts.append("")
        parts.append(render_rollup(trace, root))
        if self_times_top > 0:
            parts.append("")
            parts.append(render_self_times(trace, root, top=self_times_top))
    parts.append("")
    parts.append(render_events(trace))
    return "\n".join(parts)
