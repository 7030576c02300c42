"""The ``dashboard`` command: activity, SLO status, alert timeline, verdict."""

from repro.observability.__main__ import main as cli
from repro.observability.analysis import Trace
from repro.observability.dashboard import (
    render_activity,
    render_alerts,
    render_dashboard,
    render_slos,
    render_verdict,
)
from repro.observability.export import write_jsonl
from repro.observability.tracer import SpanRecord, TraceEvent


def main(argv):
    return cli(["dashboard", *argv])


def span(span_id, name, start, end, parent=None):
    record = SpanRecord(trace_id=0, span_id=span_id, parent_id=parent,
                        name=name, start_s=start, attrs={})
    record.end_s = end
    return record


def sample(t, slo, value, objective, breached, severity="page"):
    return TraceEvent(trace_id=0, parent_id=None, name="slo.sample", time_s=t,
                      attrs={"slo": slo, "value": value, "objective": objective,
                             "comparison": "<=", "severity": severity,
                             "breached": breached})


def transition(t, name, slo="net.drops_budget", value=1.0):
    return TraceEvent(trace_id=0, parent_id=None, name=name, time_s=t,
                      attrs={"slo": slo, "value": value, "objective": 0.0,
                             "comparison": "<=", "severity": "page"})


def fault(t, name, **attrs):
    return TraceEvent(trace_id=0, parent_id=None, name=name, time_s=t,
                      attrs=attrs)


def drill_trace():
    """A miniature drill: activity, samples, one fire/resolve pair."""
    records = [
        span(1, "queries.epoch", 0.0, 5.0),
        span(2, "net.send", 1.0, 2.0, parent=1),
        span(3, "queries.epoch", 50.0, 56.0),
        fault(20.0, "faults.inject", fault_type="UplinkOutage"),
        fault(60.0, "faults.recover", fault_type="UplinkOutage"),
        transition(30.0, "slo.fire"),
        transition(75.0, "slo.resolve"),
        sample(15.0, "net.drops_budget", 0.0, 0.0, False),
        sample(30.0, "net.drops_budget", 1.0, 0.0, True),
        sample(75.0, "net.drops_budget", 0.0, 0.0, False),
        sample(15.0, "queries.latency_p95", 0.4, 10.0, False, severity="warn"),
        sample(75.0, "queries.latency_p95", 0.5, 10.0, False, severity="warn"),
    ]
    return Trace(records)


class TestRenderers:
    def test_activity_lists_subsystems(self):
        text = render_activity(drill_trace())
        assert "queries" in text and "net" in text
        assert "activity" in text

    def test_activity_empty(self):
        assert "no records" in render_activity(Trace([]))

    def test_slos_table(self):
        text = render_slos(drill_trace())
        assert "net.drops_budget" in text
        assert "queries.latency_p95" in text
        assert "<= 10" in text

    def test_slos_without_samples(self):
        assert "no slo.sample" in render_slos(Trace([span(1, "a.b", 0.0, 1.0)]))

    def test_alert_timeline_interleaves_faults(self):
        lines = render_alerts(drill_trace()).splitlines()
        # "t=    20.00 s  fault inject ..." -> token 3 is the label's first word
        labels = [line.split()[3] for line in lines[1:]]
        # chronological: inject(20) fire(30) recover(60) resolve(75)
        assert labels == ["fault", "ALERT", "fault", "alert"]

    def test_alert_timeline_empty(self):
        assert "empty" in render_alerts(Trace([span(1, "a.b", 0.0, 1.0)]))

    def test_verdict_recovered_run_is_degraded(self):
        # the alert resolved, but a breach happened: degraded, not healthy
        assert "DEGRADED" in render_verdict(drill_trace())

    def test_verdict_currently_firing_page_is_critical(self):
        records = [sample(10.0, "net.drops_budget", 1.0, 0.0, True)]
        text = render_verdict(Trace(records))
        assert "CRITICAL" in text
        assert "net.drops_budget" in text

    def test_verdict_clean_run_is_healthy(self):
        records = [sample(10.0, "net.drops_budget", 0.0, 0.0, False)]
        assert "HEALTHY" in render_verdict(Trace(records))

    def test_verdict_unknown_without_samples(self):
        assert "unknown" in render_verdict(Trace([]))

    def test_full_dashboard_has_all_sections(self):
        text = render_dashboard(drill_trace())
        for needle in ("trace:", "activity", "SLOs", "alert timeline",
                       "verdict:"):
            assert needle in text


class TestCli:
    def export(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace = drill_trace()
        write_jsonl([*trace.spans, *trace.events], path)
        return str(path)

    def test_renders_exported_trace(self, tmp_path, capsys):
        assert main([self.export(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: DEGRADED" in out
        assert "alert timeline" in out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_trace_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 2
        assert "empty trace" in capsys.readouterr().err

    def test_malformed_line_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "event"\n')
        assert main([str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_width_exits_two(self, tmp_path, capsys):
        assert main([self.export(tmp_path), "--width", "0"]) == 2
        assert "--width" in capsys.readouterr().err
