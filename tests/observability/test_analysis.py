"""Trace analysis: critical paths that attribute 100% of latency,
rollups, JSONL round-trips, and the report CLI."""

import pytest

from repro.observability.analysis import (
    Trace,
    critical_path,
    event_counts,
    self_times,
    subsystem_rollup,
)
from repro.observability.export import read_jsonl, record_from_dict, write_jsonl
from repro.observability.__main__ import main
from repro.observability.report import pick_root, render_report
from repro.observability.tracer import SpanRecord, Tracer


class Clock:
    """A stand-in simulator: just a settable ``now``."""

    def __init__(self) -> None:
        self.now = 0.0


def make_tracer():
    clock = Clock()
    return clock, Tracer(clock)


def build_sample_trace():
    """A root with overlapping children and a grandchild:

    query.run   [0, 10]
      net.send  [1, 4]
      grid.offload [3, 8]
        grid.job   [5, 7]
    """
    clock, tracer = make_tracer()
    root = tracer.span("query.run")
    with tracer.use(root):
        clock.now = 1.0
        a = tracer.span("net.send")
        clock.now = 3.0
        b = tracer.span("grid.offload")
        with tracer.use(b):
            clock.now = 5.0
            g = tracer.span("grid.job")
            tracer.event("grid.dispatch", site="site-0")
            clock.now = 7.0
            g.end()
        a.end_at(4.0)
        clock.now = 8.0
        b.end()
        tracer.event("query.decision", model="grid")
    clock.now = 10.0
    root.end()
    return tracer, root.record


class TestTraceIndex:
    def test_roots_children_and_subtree(self):
        tracer, root = build_sample_trace()
        trace = Trace(tracer)
        assert [r.name for r in trace.roots()] == ["query.run"]
        kids = trace.children(root)
        assert [k.name for k in kids] == ["net.send", "grid.offload"]
        assert [s.name for s in trace.subtree(root)] == [
            "query.run", "net.send", "grid.offload", "grid.job"]

    def test_connectivity_and_subsystems(self):
        tracer, root = build_sample_trace()
        trace = Trace(tracer)
        assert trace.is_connected(root)
        assert trace.subsystems(root) == {"query", "net", "grid"}

    def test_disconnected_trace_detected(self):
        # same trace id, but the second span is not in the root's subtree
        root = SpanRecord(0, 0, None, "query.run", 0.0, {})
        root.end_s = 1.0
        stray = SpanRecord(0, 1, 99, "net.send", 0.2, {})
        stray.end_s = 0.5
        trace = Trace([root, stray])
        assert not trace.is_connected(root)

    def test_events_under_and_find(self):
        tracer, root = build_sample_trace()
        trace = Trace(tracer)
        events = trace.events_under(root)
        assert [e.name for e in events] == ["grid.dispatch", "query.decision"]
        assert [s.name for s in trace.find("grid.")] == ["grid.offload", "grid.job"]


class TestCriticalPath:
    def test_segments_account_for_all_latency(self):
        tracer, root = build_sample_trace()
        trace = Trace(tracer)
        segments = critical_path(trace, root)
        # backward walk: the child whose end gated each instant claims it
        assert [(s.span.name, s.start_s, s.end_s) for s in segments] == [
            ("query.run", 0.0, 1.0),
            ("net.send", 1.0, 3.0),
            ("grid.offload", 3.0, 5.0),
            ("grid.job", 5.0, 7.0),
            ("grid.offload", 7.0, 8.0),
            ("query.run", 8.0, 10.0),
        ]
        assert sum(s.duration_s for s in segments) == root.end_s - root.start_s
        assert [s.depth for s in segments] == [0, 1, 1, 2, 1, 0]

    def test_attribution_is_exact_on_irregular_floats(self):
        clock, tracer = make_tracer()
        root = tracer.span("query.run")
        with tracer.use(root):
            clock.now = 0.1 + 0.2  # 0.30000000000000004
            child = tracer.span("net.send")
            clock.now = 1.0 / 3.0 + 1.0
            child.end()
        clock.now = 2.718281828
        root.end()
        trace = Trace(tracer)
        segments = critical_path(trace, root.record)
        assert sum(s.duration_s for s in segments) == pytest.approx(
            root.record.duration_s, rel=0, abs=1e-12)

    def test_open_root_is_rejected(self):
        _, tracer = make_tracer()
        root = tracer.span("query.run")
        with pytest.raises(ValueError):
            critical_path(Trace(tracer), root.record)

    def test_open_children_are_skipped(self):
        clock, tracer = make_tracer()
        root = tracer.span("query.run")
        with tracer.use(root):
            tracer.span("net.send")  # never ended
        clock.now = 4.0
        root.end()
        segments = critical_path(Trace(tracer), root.record)
        assert [(s.span.name, s.duration_s) for s in segments] == [("query.run", 4.0)]

    def test_child_overhanging_root_is_clipped(self):
        clock, tracer = make_tracer()
        root = tracer.span("query.run")
        with tracer.use(root):
            clock.now = 2.0
            child = tracer.span("net.send")
        clock.now = 3.0
        root.end()
        clock.now = 9.0
        child.end()  # ends after its parent
        segments = critical_path(Trace(tracer), root.record)
        assert sum(s.duration_s for s in segments) == 3.0
        assert [(s.span.name, s.start_s, s.end_s) for s in segments] == [
            ("query.run", 0.0, 2.0), ("net.send", 2.0, 3.0)]


class TestRollups:
    def test_self_times_sum_to_root_duration(self):
        tracer, root = build_sample_trace()
        times = self_times(Trace(tracer), root)
        assert times == {"query.run": 3.0, "net.send": 2.0,
                         "grid.offload": 3.0, "grid.job": 2.0}
        assert sum(times.values()) == root.duration_s

    def test_subsystem_rollup_shares_sum_to_one(self):
        tracer, root = build_sample_trace()
        rows = subsystem_rollup(Trace(tracer), root)
        assert [r["subsystem"] for r in rows] == ["grid", "query", "net"]
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        by_sub = {r["subsystem"]: r for r in rows}
        assert by_sub["grid"]["self_s"] == 5.0
        assert by_sub["grid"]["spans"] == 2

    def test_event_counts(self):
        tracer, root = build_sample_trace()
        trace = Trace(tracer)
        assert event_counts(trace) == {"grid.dispatch": 1, "query.decision": 1}
        assert list(event_counts(trace)) == sorted(event_counts(trace))


class TestExport:
    def test_jsonl_round_trip_preserves_analysis(self, tmp_path):
        tracer, root = build_sample_trace()
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(tracer.records, path)
        assert count == len(tracer.records)
        records = read_jsonl(path)
        assert [r.to_dict() for r in records] == [r.to_dict() for r in tracer.records]
        reloaded = Trace(records)
        reroot = reloaded.roots()[0]
        assert self_times(reloaded, reroot) == self_times(Trace(tracer), root)

    def test_open_span_round_trips_as_open(self, tmp_path):
        _, tracer = make_tracer()
        tracer.span("net.send", relay=2)
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer.records, path)
        (record,) = read_jsonl(path)
        assert record.end_s is None
        assert record.attrs == {"relay": 2}

    def test_unjsonable_attrs_are_coerced(self, tmp_path):
        import numpy as np

        _, tracer = make_tracer()
        span = tracer.span("net.send", bits=np.float64(42.5), obj=object())
        span.end()
        path = tmp_path / "trace.jsonl"
        write_jsonl(tracer.records, path)
        (record,) = read_jsonl(path)
        assert record.attrs["bits"] == 42.5
        assert isinstance(record.attrs["obj"], str)

    def test_bad_lines_are_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span"\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            read_jsonl(path)
        path.write_text('{"kind": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            read_jsonl(path)

    def test_record_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            record_from_dict({"kind": "nope"})


class TestReport:
    def test_pick_root_prefers_longest_closed(self):
        tracer, root = build_sample_trace()
        clock = tracer.sim
        short = tracer.span("session.short")
        clock.now = 10.5
        short.end()
        tracer.span("session.open")  # open: never eligible
        trace = Trace(tracer)
        assert pick_root(trace).name == "query.run"
        assert pick_root(trace, "session.").name == "session.short"
        assert pick_root(trace, "nope.") is None

    def test_render_report_shows_path_rollup_events(self):
        tracer, root = build_sample_trace()
        text = render_report(Trace(tracer))
        assert "critical path of 'query.run'" in text
        assert "latency by subsystem" in text
        assert "grid.dispatch" in text
        assert "% of total" in text

    def test_cli_on_exported_trace(self, tmp_path, capsys):
        tracer, _ = build_sample_trace()
        path = tmp_path / "trace.jsonl"
        tracer.export(path)
        assert main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "critical path of 'query.run'" in out
        assert "4 spans, 2 events, 1 trace ids, 1 roots" in out

    def test_cli_root_prefix_and_missing_file(self, tmp_path, capsys):
        tracer, _ = build_sample_trace()
        path = tmp_path / "trace.jsonl"
        tracer.export(path)
        assert main(["report", str(path), "--root", "nope."]) == 0
        assert "no closed root span" in capsys.readouterr().out
        assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err
