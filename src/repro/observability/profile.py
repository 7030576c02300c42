"""Renderers for wall-clock profile exports: hotspots, rollups, before/after.

``python -m repro.observability profile PROFILE`` renders the top-N
wall-clock hotspots (self/cumulative time and call counts per handler)
and the per-subsystem wall rollup of one export written by
:meth:`~repro.observability.profiling.HookProfiler.write`;
``--collapsed`` dumps the flamegraph-compatible collapsed-stack lines
instead, ready to pipe into any tool that speaks ``frame;frame N``.

``profile --diff OLD NEW`` is the profile-before/after protocol (EXPERIMENTS.md):
handler rows are matched by name -- which is deterministic for a seeded
workload -- and reported with old/new self time and delta, plus handlers
that appeared or disappeared, so an optimization PR can show exactly
where the wall clock moved.
"""

from __future__ import annotations

from repro.observability.profiling import subsystem_wall_rollup
from repro.reporting import format_table


def _fmt_s(seconds: float) -> str:
    return f"{seconds * 1e3:.4g} ms"


def render_hotspots(doc: dict, top: int = 15) -> str:
    """Top-N handlers by self wall time, plus the subsystem rollup."""
    handlers = doc.get("handlers", [])
    lines = [
        f"profiled {doc.get('events', 0)} event dispatches, "
        f"{len(handlers)} handlers, "
        f"{float(doc.get('wall_s', 0.0)) * 1e3:.4g} ms wall"
    ]
    if not handlers:
        lines.append("no handlers recorded (profiler enabled but nothing ran?)")
        return "\n".join(lines)
    total = max(float(doc.get("wall_s", 0.0)), 0.0)
    rows = []
    for row in handlers[:top]:
        share = (float(row["self_s"]) / total) if total > 0 else 0.0
        rows.append([
            row["name"], row["subsystem"], row["calls"],
            _fmt_s(float(row["self_s"])), _fmt_s(float(row["cum_s"])),
            f"{share:.1%}",
        ])
    lines.append(f"top {min(top, len(handlers))} handlers by self time:")
    lines.append(format_table(
        ["handler", "subsystem", "calls", "self", "cum", "share"],
        rows, width=17))
    if len(handlers) > top:
        lines.append(f"  ... {len(handlers) - top} more handlers")
    lines.append("")
    lines.append("wall time by subsystem:")
    sub_rows = [[r["subsystem"], r["handlers"], r["calls"],
                 _fmt_s(float(r["self_s"])), f"{float(r['share']):.1%}"]
                for r in subsystem_wall_rollup(doc)]
    lines.append(format_table(
        ["subsystem", "handlers", "calls", "self", "share"],
        sub_rows, width=14))
    return "\n".join(lines)


def render_collapsed(doc: dict) -> str:
    """Collapsed-stack lines (``frame;frame microseconds``)."""
    collapsed = doc.get("collapsed", {})
    return "\n".join(f"{path} {us}" for path, us in collapsed.items())


def render_diff(old: dict, new: dict, top: int = 15) -> str:
    """Before/after comparison of two exports, matched by handler name."""
    old_by = {r["name"]: r for r in old.get("handlers", [])}
    new_by = {r["name"]: r for r in new.get("handlers", [])}
    old_wall = float(old.get("wall_s", 0.0))
    new_wall = float(new.get("wall_s", 0.0))
    delta_pct = ((new_wall - old_wall) / old_wall * 100.0) if old_wall > 0 else float("nan")
    lines = [
        f"total wall: {_fmt_s(old_wall)} -> {_fmt_s(new_wall)} "
        f"({delta_pct:+.1f}%)"
    ]
    common = sorted(
        (name for name in new_by if name in old_by),
        key=lambda n: -abs(float(new_by[n]["self_s"]) - float(old_by[n]["self_s"])),
    )
    if common:
        rows = []
        for name in common[:top]:
            o, n = old_by[name], new_by[name]
            o_self, n_self = float(o["self_s"]), float(n["self_s"])
            pct = ((n_self - o_self) / o_self * 100.0) if o_self > 0 else float("nan")
            rows.append([name, f"{o['calls']}->{n['calls']}",
                         _fmt_s(o_self), _fmt_s(n_self), f"{pct:+.1f}%"])
        lines.append(f"top {min(top, len(common))} handlers by |Δ self|:")
        lines.append(format_table(
            ["handler", "calls", "self (old)", "self (new)", "Δ"],
            rows, width=17))
    appeared = sorted(set(new_by) - set(old_by))
    disappeared = sorted(set(old_by) - set(new_by))
    if appeared:
        lines.append("appeared: " + ", ".join(appeared))
    if disappeared:
        lines.append("disappeared: " + ", ".join(disappeared))
    if not appeared and not disappeared:
        lines.append("handler sets identical (stable hotspot names)")
    return "\n".join(lines)
