"""The ``profile`` command: hotspots, collapsed stacks, and --diff evidence."""

import json

import pytest

from repro.core.runtime import PervasiveGridRuntime
from repro.observability.__main__ import main as cli
from repro.observability.profiling import HookProfiler


def main(argv):
    return cli(["profile", *argv])


class FakeClock:
    def __init__(self) -> None:
        self.ns = 0

    def __call__(self) -> int:
        return self.ns


def export(tmp_path, name, frames):
    """Write a profile with known frame timings; returns its path."""
    clock = FakeClock()
    prof = HookProfiler(clock=clock)
    for frame_name, subsystem, ns in frames:
        with prof.frame(frame_name, subsystem):
            clock.ns += ns
    path = tmp_path / name
    prof.write(path)
    return str(path)


FRAMES = [("queries.decide", "queries", 9_000_000),
          ("net.route", "network", 4_000_000),
          ("grid.schedule", "grid", 1_000_000)]


class TestHotspots:
    def test_renders_handlers_and_subsystem_rollup(self, tmp_path, capsys):
        path = export(tmp_path, "p.json", FRAMES)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "3 handlers" in out and "14 ms wall" in out
        assert "queries.decide" in out and "64.3%" in out
        assert "wall time by subsystem:" in out and "network" in out

    def test_top_truncates_and_says_so(self, tmp_path, capsys):
        path = export(tmp_path, "p.json", FRAMES)
        assert main([path, "--top", "1"]) == 0
        out = capsys.readouterr().out
        assert "queries.decide" in out
        assert "grid.schedule" not in out
        assert "... 2 more handlers" in out

    def test_collapsed_dumps_flamegraph_lines(self, tmp_path, capsys):
        path = export(tmp_path, "p.json", FRAMES)
        assert main([path, "--collapsed"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "net.route 4000" in out and "queries.decide 9000" in out


class TestDiff:
    def test_same_workload_twice_has_stable_hotspot_names(self, tmp_path, capsys):
        """The acceptance property: two seeded runs of the same workload
        diff cleanly -- every handler matches by name."""
        def profile_run(name):
            rt = PervasiveGridRuntime(n_sensors=9, area_m=20.0, seed=5,
                                      profile=True)
            rt.query("SELECT AVG(temperature) FROM sensors")
            path = tmp_path / name
            rt.export_profile(path)
            return str(path)

        old, new = profile_run("old.json"), profile_run("new.json")
        assert main(["--diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "handler sets identical (stable hotspot names)" in out
        assert "total wall:" in out

    def test_diff_reports_appeared_and_disappeared(self, tmp_path, capsys):
        old = export(tmp_path, "old.json", FRAMES)
        new = export(tmp_path, "new.json",
                     [FRAMES[0], ("net.route_cached", "network", 500_000)])
        assert main(["--diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "appeared: net.route_cached" in out
        assert "disappeared: grid.schedule, net.route" in out

    def test_diff_shows_per_handler_delta(self, tmp_path, capsys):
        old = export(tmp_path, "old.json", FRAMES)
        new = export(tmp_path, "new.json",
                     [("queries.decide", "queries", 4_500_000),
                      FRAMES[1], FRAMES[2]])
        assert main(["--diff", old, new]) == 0
        out = capsys.readouterr().out
        assert "-50.0%" in out and "queries.decide" in out


class TestErrors:
    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_kind_exits_two(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"kind": "trace"}))
        assert main([str(path)]) == 2
        assert "not a profile export" in capsys.readouterr().err

    def test_exactly_one_of_profile_or_diff(self, tmp_path, capsys):
        path = export(tmp_path, "p.json", FRAMES)
        assert main([]) == 2
        assert main([path, "--diff", path, path]) == 2
        assert capsys.readouterr().err.count("error: give exactly one") == 2

    def test_collapsed_does_not_combine_with_diff(self, tmp_path, capsys):
        path = export(tmp_path, "p.json", FRAMES)
        assert main(["--diff", path, path, "--collapsed"]) == 2
        assert "error: --collapsed does not combine" in capsys.readouterr().err

    @pytest.mark.parametrize("top", ["0", "-1", "-100"])
    def test_top_must_be_positive(self, tmp_path, capsys, top):
        """--top is refused below 1, like --width and --self-times below
        their floors, for one profile and for --diff."""
        path = export(tmp_path, "p.json", FRAMES)
        assert main([path, "--top", top]) == 2
        assert main(["--diff", path, path, "--top", top]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --top must be >= 1"] * 2

    def test_disjoint_profiles_exit_two_with_one_line_error(self, tmp_path, capsys):
        """Diffing two unrelated workloads must fail loudly, not render
        an empty table."""
        old = export(tmp_path, "old.json", FRAMES)
        new = export(tmp_path, "new.json",
                     [("disc.advertise", "discovery", 2_000_000)])
        assert main(["--diff", old, new]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err_lines = [ln for ln in captured.err.splitlines() if ln]
        assert len(err_lines) == 1
        assert "share no handler names" in err_lines[0]
