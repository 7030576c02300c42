"""Degenerate inputs: every renderer degrades to words, not tracebacks.

An operator pointing the tooling at a sparse run -- no queries, no SLO
engine attached, profiling left off -- must get a readable "nothing
here" message from every section, because a dashboard that crashes on
the empty case is useless exactly when things are broken.
"""

import json

from repro.observability.__main__ import main
from repro.observability.analysis import Trace
from repro.observability.dashboard import render_dashboard, render_slos, render_verdict
from repro.observability.ledger import render_ledger
from repro.observability.profile import render_hotspots
from repro.observability.profiling import HookProfiler
from repro.observability.report import render_report, report_dict
from repro.observability.tracer import Tracer


class FakeSim:
    def __init__(self) -> None:
        self.now = 0.0


def sparse_tracer():
    """One non-query span; no SLO events, no queries, nothing else."""
    sim = FakeSim()
    tracer = Tracer(sim)
    span = tracer.span("net.send", src=0, dst=1)
    sim.now = 1.0
    span.end()
    return tracer


class TestDashboard:
    def test_empty_trace_renders_every_section(self):
        text = render_dashboard(Trace([]))
        assert "0 spans, 0 events" in text
        assert "no closed 'query.run' spans" in text  # ledger section
        assert isinstance(render_verdict(Trace([])), str)

    def test_trace_without_slo_data_renders(self):
        trace = Trace(sparse_tracer().records)
        text = render_dashboard(trace)
        assert "1 spans" in text
        slos = render_slos(trace)
        assert "slo" in slos.lower()

    def test_ledger_section_without_queries_is_a_sentence(self):
        text = render_ledger(Trace(sparse_tracer().records))
        assert "no closed 'query.run' spans" in text
        assert "\n" not in text  # one graceful line, not a broken table


class TestReport:
    def test_no_closed_root_with_self_times_requested(self):
        # self-times need a root; without one the report says so instead
        # of raising
        text = render_report(Trace([]), self_times_top=10)
        assert "no closed root span to analyze" in text

    def test_report_dict_self_times_none_without_root(self):
        doc = report_dict(Trace([]))
        assert doc["self_times"] is None
        assert doc["critical_path"] is None

    def test_cli_self_times_on_rootless_trace(self, tmp_path, capsys):
        path = tmp_path / "sparse.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for record in sparse_tracer().records:
                fh.write(json.dumps(record.to_dict()) + "\n")
        assert main(["report", str(path), "--root", "query.",
                     "--self-times", "5"]) == 0
        out = capsys.readouterr().out
        assert "no closed root span to analyze (prefix 'query.')" in out


class TestProfile:
    def test_empty_profile_renders_a_sentence(self):
        text = render_hotspots(HookProfiler().to_dict())
        assert "profiled 0 event dispatches" in text
        assert "no handlers recorded" in text
