"""Bench trajectory: recorder, result files, the compare regression gate."""

import json
import math
import pathlib

import pytest

from repro.observability.__main__ import main as cli
from repro.observability.bench import (
    BenchRecorder,
    BenchResult,
    compare,
    filter_results,
    load_results,
    params_hash,
    render_compare,
)


def main(argv):
    return cli(["bench", *argv])


class TestRecorder:
    def test_record_and_save_roundtrip(self, tmp_path):
        recorder = BenchRecorder()
        recorder.record("E2", "tree_mj", 0.73, unit="mJ", direction="lower",
                        seed=11)
        recorder.record("E2", "tree_mj", 0.80, seed=12)  # different params: ok
        path = tmp_path / "results.json"
        assert recorder.save(path) == 2
        loaded = load_results(path)
        assert len(loaded) == 2
        key = ("E2", "tree_mj", params_hash({"seed": 11}))
        assert loaded[key].value == 0.73
        assert loaded[key].unit == "mJ"
        assert loaded[key].direction == "lower"

    def test_duplicate_key_rejected(self):
        recorder = BenchRecorder()
        recorder.record("E2", "tree_mj", 0.73, seed=11)
        with pytest.raises(ValueError, match="duplicate"):
            recorder.record("E2", "tree_mj", 0.74, seed=11)

    def test_nan_is_legal_infinity_is_not(self):
        recorder = BenchRecorder()
        recorder.record("E2", "p95", math.nan)
        with pytest.raises(ValueError, match="E2/p50 must be finite"):
            recorder.record("E2", "p50", math.inf)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            BenchResult("", "m", 1.0)
        with pytest.raises(ValueError, match="direction"):
            BenchResult("E1", "m", 1.0, direction="sideways")
        with pytest.raises(ValueError, match="E1/m must be finite"):
            BenchResult("E1", "m", -math.inf)

    def test_params_hash_is_order_insensitive(self):
        assert params_hash({"a": 1, "b": 2}) == params_hash({"b": 2, "a": 1})
        assert params_hash({"a": 1}) != params_hash({"a": 2})

    def test_save_is_sorted_and_stable(self, tmp_path):
        recorder = BenchRecorder()
        recorder.record("E9", "z", 1.0)
        recorder.record("E1", "a", 2.0)
        recorder.save(tmp_path / "a.json")
        payload = json.loads((tmp_path / "a.json").read_text())
        assert [r["experiment"] for r in payload["results"]] == ["E1", "E9"]
        assert payload["schema"] == 1


class TestLoadErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_results(path)

    def test_missing_results_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1}')
        with pytest.raises(ValueError, match="results"):
            load_results(path)

    def test_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "results": []}')
        with pytest.raises(ValueError, match="schema"):
            load_results(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "results": [{"metric": "m"}]}')
        with pytest.raises(ValueError, match="malformed"):
            load_results(path)

    def test_reader_refuses_what_the_recorder_refuses(self, tmp_path):
        """An infinite value or a repeated key is refused on load, naming
        the path, as the recorder refuses it on record."""
        row = {"experiment": "E1", "metric": "m", "value": 1.0}
        for rows, message in (
                ([{**row, "value": math.inf}], "E1/m must be finite, got inf"),
                ([row, {**row, "value": 2.0}], r"duplicate bench result \('E1', 'm'")):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({"schema": 1, "results": rows}))
            with pytest.raises(ValueError, match=message) as err:
                load_results(path)
            assert str(path) in str(err.value)

    def test_results_must_be_a_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1, "results": 5}')
        with pytest.raises(ValueError, match="'results' holds int"):
            load_results(path)


def result(value, direction="either", metric="m", experiment="E1"):
    return BenchResult(experiment, metric, value, direction=direction)


def as_map(*results):
    return {r.key: r for r in results}


class TestCompare:
    def test_identical_within_tolerance(self):
        old = as_map(result(1.0))
        report = compare(old, as_map(result(1.0)), tolerance=0.05)
        assert report.ok
        assert len(report.unchanged) == 1

    def test_direction_lower_regresses_upward(self):
        old = as_map(result(1.0, direction="lower"))
        worse = compare(old, as_map(result(1.2, direction="lower")), 0.05)
        assert not worse.ok
        better = compare(old, as_map(result(0.8, direction="lower")), 0.05)
        assert better.ok and len(better.improvements) == 1

    def test_direction_higher_regresses_downward(self):
        old = as_map(result(1.0, direction="higher"))
        assert not compare(old, as_map(result(0.8)), 0.05).ok
        assert compare(old, as_map(result(1.2)), 0.05).ok

    def test_direction_either_regresses_both_ways(self):
        old = as_map(result(1.0, direction="either"))
        assert not compare(old, as_map(result(1.2)), 0.05).ok
        assert not compare(old, as_map(result(0.8)), 0.05).ok

    def test_baseline_direction_is_the_contract(self):
        old = as_map(result(1.0, direction="lower"))
        new = as_map(result(0.8, direction="either"))
        assert compare(old, new, 0.05).ok  # old says lower-is-better

    def test_added_and_removed_never_fail_the_gate(self):
        old = as_map(result(1.0, metric="gone"))
        new = as_map(result(2.0, metric="new"))
        report = compare(old, new, 0.05)
        assert report.ok
        assert [r.metric for r in report.added] == ["new"]
        assert [r.metric for r in report.removed] == ["gone"]

    def test_nan_transitions_always_regress(self):
        old = as_map(result(1.0, direction="lower"))
        assert not compare(old, as_map(result(math.nan)), 0.05).ok
        old_nan = as_map(result(math.nan, direction="lower"))
        assert not compare(old_nan, as_map(result(0.5)), 0.05).ok
        # NaN on both sides is "unchanged"
        assert compare(old_nan, as_map(result(math.nan)), 0.05).ok

    def test_zero_baseline_does_not_divide_by_zero(self):
        old = as_map(result(0.0, direction="lower"))
        report = compare(old, as_map(result(0.0)), 0.05)
        assert report.ok

    def test_bad_tolerance(self):
        with pytest.raises(ValueError, match="tolerance"):
            compare({}, {}, tolerance=-0.1)

    def test_render_mentions_the_regression(self):
        old = as_map(result(1.0, direction="lower"))
        report = compare(old, as_map(result(2.0)), 0.05)
        text = render_compare(report)
        assert "REGRESSED" in text
        assert "1 regressed" in text


class TestCli:
    def save(self, tmp_path, name, rows):
        recorder = BenchRecorder()
        for experiment, metric, value, direction in rows:
            recorder.record(experiment, metric, value, direction=direction,
                            seed=11)
        path = tmp_path / name
        recorder.save(path)
        return str(path)

    ROWS = [("E13", "completion", 1.0, "higher"), ("E2", "tree_mj", 0.73, "lower")]

    def test_compare_identical_exits_zero(self, tmp_path, capsys):
        a = self.save(tmp_path, "a.json", self.ROWS)
        b = self.save(tmp_path, "b.json", self.ROWS)
        assert main(["compare", a, b]) == 0
        assert "0 regressed" in capsys.readouterr().out

    def test_compare_perturbed_exits_one(self, tmp_path, capsys):
        a = self.save(tmp_path, "a.json", self.ROWS)
        worse = [("E13", "completion", 0.5, "higher"),
                 ("E2", "tree_mj", 0.73, "lower")]
        b = self.save(tmp_path, "b.json", worse)
        assert main(["compare", a, b, "--tolerance", "0.05"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_tolerance_flag_loosens_the_gate(self, tmp_path):
        a = self.save(tmp_path, "a.json", self.ROWS)
        drift = [("E13", "completion", 0.97, "higher"),
                 ("E2", "tree_mj", 0.73, "lower")]
        b = self.save(tmp_path, "b.json", drift)
        assert main(["compare", a, b, "--tolerance", "0.01"]) == 1
        assert main(["compare", a, b, "--tolerance", "0.10"]) == 0

    def test_missing_file_exits_two(self, tmp_path, capsys):
        a = self.save(tmp_path, "a.json", self.ROWS)
        assert main(["compare", a, str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreadable_file_exits_two(self, tmp_path, capsys):
        a = self.save(tmp_path, "a.json", self.ROWS)
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["compare", a, str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_show(self, tmp_path, capsys):
        a = self.save(tmp_path, "a.json", self.ROWS)
        assert main(["show", a]) == 0
        out = capsys.readouterr().out
        assert "E13" in out and "completion" in out

    def test_show_renders_a_file_with_no_rows(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        BenchRecorder().save(path)
        assert main(["show", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("experiment/metric")

    def test_an_infinite_baseline_row_fails_the_gate_as_an_input_error(
            self, tmp_path, capsys):
        """``Infinity`` once compared as ``+nan%  ok`` and passed a
        zero-tolerance gate with exit 0."""
        a = self.save(tmp_path, "a.json", self.ROWS)
        payload = json.loads(pathlib.Path(a).read_text())
        payload["results"][0]["value"] = math.inf
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(payload))
        assert main(["compare", str(bad), a, "--tolerance", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: malformed result row")

    def test_only_narrows_the_gate_to_matching_metrics(self, tmp_path, capsys):
        a = self.save(tmp_path, "a.json", self.ROWS)
        worse = [("E13", "completion", 0.5, "higher"),
                 ("E2", "tree_mj", 0.73, "lower")]
        b = self.save(tmp_path, "b.json", worse)
        # the E13 regression is invisible when the gate only watches E2
        assert main(["compare", a, b, "--only", "E2/tree_mj"]) == 0
        assert "E13" not in capsys.readouterr().out
        assert main(["compare", a, b, "--only", "E13/*"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_only_is_repeatable_and_zero_tolerance_composes(self, tmp_path):
        a = self.save(tmp_path, "a.json", self.ROWS)
        drift = [("E13", "completion", 1.0, "higher"),
                 ("E2", "tree_mj", 0.7301, "lower")]
        b = self.save(tmp_path, "b.json", drift)
        # tiny drift passes at the default tolerance, fails a pinned gate
        assert main(["compare", a, b]) == 0
        assert main(["compare", a, b, "--tolerance", "0",
                     "--only", "E2/tree_mj"]) == 1
        assert main(["compare", a, b, "--tolerance", "0",
                     "--only", "E13/completion", "--only", "E2/tree_mj"]) == 1

    def test_only_matching_nothing_is_an_error(self, tmp_path, capsys):
        a = self.save(tmp_path, "a.json", self.ROWS)
        b = self.save(tmp_path, "b.json", self.ROWS)
        assert main(["compare", a, b, "--only", "E99/nothing"]) == 2
        assert "matched no metric" in capsys.readouterr().err

    def test_each_only_pattern_must_match_and_is_named_when_it_does_not(
            self, tmp_path, capsys):
        """A fleet of --only patterns fails loudly naming the dead one,
        even when the other patterns match plenty."""
        a = self.save(tmp_path, "a.json", self.ROWS)
        b = self.save(tmp_path, "b.json", self.ROWS)
        assert main(["compare", a, b, "--only", "E2/*",
                     "--only", "E99/typo_metric"]) == 2
        err = capsys.readouterr().err
        assert "E99/typo_metric" in err and "matched no metric" in err

    def test_only_matching_one_side_only_is_an_error(self, tmp_path, capsys):
        """A pattern whose metrics exist on only one side gates nothing --
        that silence is exactly the failure mode the loud check exists for."""
        a = self.save(tmp_path, "a.json", self.ROWS)
        b = self.save(tmp_path, "b.json",
                      [("E7", "fresh_metric", 1.0, "higher")])
        assert main(["compare", a, b, "--only", "E7/fresh_metric"]) == 2
        assert "both files" in capsys.readouterr().err


class TestFilterResults:
    def make(self):
        recorder = BenchRecorder()
        recorder.record("E13-D", "lost_advertisements", 0.0, direction="lower")
        recorder.record("E13-D", "lookup_p99", 0.1, direction="lower")
        recorder.record("E2", "tree_mj", 0.73, direction="lower")
        return {r.key: r for r in recorder.results}

    def test_empty_patterns_keep_everything(self):
        results = self.make()
        assert filter_results(results, []) == results

    def test_exact_name_and_glob(self):
        results = self.make()
        exact = filter_results(results, ["E13-D/lost_advertisements"])
        assert [r.metric for r in exact.values()] == ["lost_advertisements"]
        globbed = filter_results(results, ["E13-D/*"])
        assert sorted(r.metric for r in globbed.values()) == [
            "lookup_p99", "lost_advertisements"]

    def test_no_substring_surprises(self):
        # an unanchored pattern must not match by substring
        assert filter_results(self.make(), ["lost"]) == {}
