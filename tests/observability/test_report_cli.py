"""The ``report`` command: error paths and the machine-readable --format json."""

import json

import pytest

from repro.observability.__main__ import main as cli
from repro.observability.export import write_jsonl
from repro.observability.report import report_dict
from repro.observability.analysis import Trace
from repro.observability.tracer import SpanRecord, TraceEvent


def main(argv):
    return cli(["report", *argv])


def sample_trace():
    root = SpanRecord(trace_id=0, span_id=1, parent_id=None,
                      name="queries.epoch", start_s=0.0, attrs={})
    root.end_s = 10.0
    child = SpanRecord(trace_id=0, span_id=2, parent_id=1,
                       name="net.send", start_s=2.0, attrs={})
    child.end_s = 6.0
    event = TraceEvent(trace_id=0, parent_id=2, name="net.hop", time_s=3.0,
                       attrs={"node": 4})
    return [root, child, event]


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(sample_trace(), path)
    return str(path)


class TestErrorPaths:
    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "nope.jsonl" in err

    def test_empty_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main([str(path)]) == 2
        assert "empty trace" in capsys.readouterr().err

    def test_blank_lines_only_exits_two(self, tmp_path, capsys):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n\n\n")
        assert main([str(path)]) == 2
        assert "empty trace" in capsys.readouterr().err

    def test_malformed_json_line_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "span", "trace": 0\nnot json at all\n')
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "not valid JSON" in err
        assert "Traceback" not in err

    def test_unknown_record_kind_exits_two(self, tmp_path, capsys):
        path = tmp_path / "odd.jsonl"
        path.write_text('{"kind": "blob"}\n')
        assert main([str(path)]) == 2
        assert "unknown record kind" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ['{"kind": "span"}', '[1, 2]'])
    def test_malformed_record_exits_two_naming_the_line(self, tmp_path, capsys, line):
        path = tmp_path / "odd.jsonl"
        path.write_text(line + "\n")
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:1: ") and len(err.splitlines()) == 1


class TestTextFormat:
    def test_report_renders(self, trace_path, capsys):
        assert main([trace_path]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "queries.epoch" in out

    def test_root_prefix_without_match(self, trace_path, capsys):
        assert main([trace_path, "--root", "zzz"]) == 0
        assert "no closed root span" in capsys.readouterr().out


class TestJsonFormat:
    def test_document_shape(self, trace_path, capsys):
        assert main([trace_path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"] == {"spans": 2, "events": 1, "trace_ids": 1,
                                "roots": 1}
        assert doc["root"]["name"] == "queries.epoch"
        assert doc["root"]["duration_s"] == 10.0
        assert doc["events"] == {"net.hop": 1}

    def test_critical_path_shares_sum_to_one(self, trace_path, capsys):
        main([trace_path, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        shares = [seg["share"] for seg in doc["critical_path"]]
        assert sum(shares) == pytest.approx(1.0)
        names = {seg["name"] for seg in doc["critical_path"]}
        assert {"queries.epoch", "net.send"} <= names

    def test_rollup_rows(self, trace_path, capsys):
        main([trace_path, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        by_sub = {r["subsystem"]: r for r in doc["rollup"]}
        assert by_sub["net"]["self_s"] == pytest.approx(4.0)
        assert by_sub["queries"]["self_s"] == pytest.approx(6.0)

    def test_no_matching_root_is_null(self, trace_path, capsys):
        assert main([trace_path, "--format", "json", "--root", "zzz"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["root"] is None
        assert doc["critical_path"] is None
        assert doc["rollup"] is None

    def test_report_dict_matches_cli(self, capsys):
        doc = report_dict(Trace(sample_trace()))
        assert doc["trace"]["spans"] == 2
