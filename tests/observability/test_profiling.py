"""HookProfiler: deterministic wall-clock attribution for event dispatch.

Accounting is tested with an injected nanosecond clock so every self /
cumulative number is exact; the isolation invariant (profiling never
touches the Monitor, so sharded sweeps stay bit-identical at any worker
count) is tested with real TrialRunner sweeps.  Trial functions are
module-level (they must pickle into workers).
"""

import json

import pytest

from repro.core.runtime import PervasiveGridRuntime
from repro.grid import GridResource
from repro.observability.profiling import (
    NOOP_FRAME,
    NOOP_PROFILER,
    HookProfiler,
    load_profile,
    merge_profiles,
    subsystem_wall_rollup,
)
from repro.parallel import TrialResult, TrialRunner, seed_specs
from repro.simkernel import Monitor, Simulator
from repro.wms import WorkloadManager


class FakeClock:
    """Manually-advanced nanosecond clock."""

    def __init__(self) -> None:
        self.ns = 0

    def __call__(self) -> int:
        return self.ns


def make():
    clock = FakeClock()
    return HookProfiler(clock=clock), clock


class TestFrameAccounting:
    def test_self_excludes_children_cum_includes_them(self):
        prof, clock = make()
        with prof.frame("query.run"):
            clock.ns += 10
            with prof.frame("net.route", "network"):
                clock.ns += 5
            clock.ns += 3
        rows = {r["name"]: r for r in prof.handlers()}
        assert rows["query.run"]["self_s"] == pytest.approx(13e-9)
        assert rows["query.run"]["cum_s"] == pytest.approx(18e-9)
        assert rows["net.route"]["self_s"] == pytest.approx(5e-9)
        assert rows["net.route"]["cum_s"] == pytest.approx(5e-9)
        assert rows["net.route"]["subsystem"] == "network"
        # default subsystem is the first dotted component
        assert rows["query.run"]["subsystem"] == "query"
        # self times partition the wall exactly
        assert prof.total_wall_s == pytest.approx(18e-9)

    def test_recursive_frames_count_cum_once(self):
        prof, clock = make()
        with prof.frame("f"):
            clock.ns += 2
            with prof.frame("f"):
                clock.ns += 4
            clock.ns += 1
        rows = {r["name"]: r for r in prof.handlers()}
        assert rows["f"]["calls"] == 2
        # self: inner 4 + outer (2 + 1) = 7
        assert rows["f"]["self_s"] == pytest.approx(7e-9)
        # cum counted at the outermost occurrence only: 7, not 11
        assert rows["f"]["cum_s"] == pytest.approx(7e-9)

    def test_collapsed_stacks_are_paths_with_self_microseconds(self):
        prof, clock = make()
        with prof.frame("a"):
            clock.ns += 3000
            with prof.frame("b"):
                clock.ns += 2000
        assert prof.collapsed_stacks() == ["a 3", "a;b 2"]

    def test_handlers_sorted_by_descending_self_then_name(self):
        prof, clock = make()
        for name, ns in (("mid", 5), ("big", 9), ("also_mid", 5)):
            with prof.frame(name):
                clock.ns += ns
        assert [r["name"] for r in prof.handlers()] == ["big", "also_mid", "mid"]

    def test_clear_drops_samples(self):
        prof, clock = make()
        with prof.frame("a"):
            clock.ns += 5
        prof.clear()
        assert len(prof) == 0 and prof.events == 0
        assert prof.handlers() == [] and prof.total_wall_s == 0.0


class TestDispatchAttribution:
    def run_events(self, prof):
        sim = Simulator()
        sim.profiler = prof

        def tick():
            pass

        # labeled events fold at the first ':'; unlabeled fall back to
        # the callback qualname truncated at '.<locals>'
        sim.schedule(1.0, tick, label="hop:17")
        sim.schedule(2.0, tick, label="hop:18")
        sim.schedule(3.0, tick)
        sim.run()
        return sim

    def test_labels_fold_and_qualnames_truncate(self):
        prof, clock = make()
        self.run_events(prof)
        rows = {r["name"]: r for r in prof.handlers()}
        assert prof.events == 3
        assert rows["hop"]["calls"] == 2
        qualnames = [n for n in rows if n.endswith("run_events")]
        assert qualnames, rows.keys()
        assert ".<locals>" not in qualnames[0]

    def test_handler_names_deterministic_across_runs(self):
        """The property --diff rests on: same workload, same name set."""
        a, _ = make()
        b, _ = make()
        self.run_events(a)
        self.run_events(b)
        assert [r["name"] for r in a.handlers()] == [r["name"] for r in b.handlers()]

    def test_disabled_profiler_is_skipped_by_the_dispatch_loop(self):
        prof = HookProfiler(enabled=False)
        self.run_events(prof)
        assert prof.events == 0 and len(prof) == 0

    @staticmethod
    def profiled_wms(n_jobs):
        """A WMS run of ``n_jobs`` compute jobs, plus as many events
        labelled per message (``hop:<id>``)."""
        prof, _ = make()
        sim = Simulator()
        sim.profiler = prof
        wm = WorkloadManager(sim, [GridResource(sim, f"s{i}", 1e6) for i in range(4)])
        for i in range(n_jobs):
            wm.submit_compute(1e3)
            sim.schedule(i * 1e-3, lambda: None, label=f"hop:{i}")
        sim.run()
        return prof

    def test_state_stays_bounded_whatever_the_labels(self):
        small, large = self.profiled_wms(1_000), self.profiled_wms(10_000)

        def rows(prof):
            return [(r["name"], r["subsystem"]) for r in prof.handlers()]

        def state_sizes(prof):
            return {k: len(v) for k, v in vars(prof).items()
                    if isinstance(v, (dict, list))}

        assert large.events > small.events
        assert rows(small) == rows(large)
        assert {"job", "hop", "pilot"} <= {name for name, _ in rows(small)}
        assert state_sizes(small) == state_sizes(large)


class TestNoop:
    def test_disabled_frame_is_the_shared_singleton(self):
        assert NOOP_PROFILER.frame("a.b") is NOOP_FRAME
        assert HookProfiler(enabled=False).frame("x") is NOOP_FRAME

    def test_fresh_profiler_is_truthy_despite_len_zero(self):
        # the 'sim.profiler or NOOP_PROFILER' idiom must keep a fresh
        # (empty) profiler, so truthiness cannot follow __len__
        prof = HookProfiler()
        assert len(prof) == 0 and bool(prof)
        assert (prof or NOOP_PROFILER) is prof

    def test_noop_frame_records_nothing(self):
        with NOOP_PROFILER.frame("a.b", "net"):
            pass
        assert len(NOOP_PROFILER) == 0


class TestExport:
    def fill(self):
        prof, clock = make()
        with prof.frame("query.run"):
            clock.ns += 10_000
            with prof.frame("net.route", "network"):
                clock.ns += 4_000
        return prof

    def test_to_dict_write_load_round_trip(self, tmp_path):
        prof = self.fill()
        path = tmp_path / "p.json"
        assert prof.write(path) == 2
        doc = load_profile(path)
        assert doc == prof.to_dict()
        assert doc["schema"] == 1 and doc["kind"] == "hook_profile"
        assert doc["collapsed"] == {"query.run": 10, "query.run;net.route": 4}

    def test_load_rejects_non_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_profile(bad)

    def test_load_rejects_wrong_kind_schema_and_missing_keys(self, tmp_path):
        cases = [
            ({"kind": "trace"}, "not a profile export"),
            ({"kind": "hook_profile", "schema": 99}, "unsupported schema"),
            ({"kind": "hook_profile", "schema": 1, "events": 0, "wall_s": 0.0,
              "handlers": []}, "no 'collapsed' key"),
            ({"kind": "hook_profile", "schema": 1, "events": 1, "wall_s": 0.1,
              "handlers": [{"name": "x"}], "collapsed": {}}, "malformed handler row"),
        ]
        for doc, message in cases:
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=message):
                load_profile(path)


class TestMerge:
    def test_merge_sums_per_name_and_skips_none(self):
        a = TestExport().fill().to_dict()
        b = TestExport().fill().to_dict()
        merged = merge_profiles([a, None, b])
        rows = {r["name"]: r for r in merged["handlers"]}
        assert rows["net.route"]["calls"] == 2
        assert rows["net.route"]["self_s"] == pytest.approx(8e-6)
        assert merged["collapsed"]["query.run;net.route"] == 8
        assert merged["wall_s"] == pytest.approx(2 * a["wall_s"])

    def test_merge_of_nothing_is_none(self):
        assert merge_profiles([]) is None
        assert merge_profiles([None, None]) is None


class TestRollup:
    def test_shares_sum_to_one(self):
        doc = TestExport().fill().to_dict()
        rows = subsystem_wall_rollup(doc)
        assert [r["subsystem"] for r in rows] == ["query", "network"]
        assert sum(r["share"] for r in rows) == pytest.approx(1.0)
        assert rows[0]["self_s"] == pytest.approx(10e-6)

    def test_empty_profile_rolls_up_empty(self):
        assert subsystem_wall_rollup(HookProfiler().to_dict()) == []


class TestRuntimeIntegration:
    def test_profiled_runtime_attributes_the_query_stack(self, tmp_path):
        rt = PervasiveGridRuntime(n_sensors=9, area_m=20.0, seed=5, profile=True)
        rt.query("SELECT AVG(temperature) FROM sensors")
        assert rt.profiler is rt.sim.profiler
        assert rt.profiler.events > 0
        names = {r["name"] for r in rt.profiler.handlers()}
        assert "queries.decide" in names
        path = tmp_path / "rt.json"
        assert rt.export_profile(path) == len(rt.profiler)
        assert load_profile(path)["events"] == rt.profiler.events

    def test_unprofiled_runtime_refuses_to_export(self, tmp_path):
        rt = PervasiveGridRuntime(n_sensors=9, area_m=20.0, seed=5)
        assert rt.profiler is None and rt.sim.profiler is None
        with pytest.raises(RuntimeError, match="profile=True"):
            rt.export_profile(tmp_path / "no.json")

    def test_profiling_does_not_change_simulation_results(self):
        def answers(profile: bool):
            rt = PervasiveGridRuntime(n_sensors=25, area_m=40.0, seed=3,
                                      profile=profile)
            out = [(o.success, o.model, o.time_s, repr(o.value))
                   for o in rt.query("SELECT DISTRIBUTION(temperature) FROM sensors")]
            return out, rt.sim.now

        assert answers(False) == answers(True)


def profiled_trial(spec):
    """A tiny world that profiles; counters must not see the profiler."""
    sim = Simulator()
    monitor = Monitor()
    profiler = HookProfiler() if spec.profile else None
    sim.profiler = profiler
    for i in range(spec.seed % 4 + 2):
        sim.schedule(float(i + 1), lambda i=i: monitor.counter("ticks").add(i + 1),
                     label=f"tick:{i}")
    sim.run()
    return TrialResult(monitor=monitor, metrics={"events": sim.events_executed},
                       sim_time_s=sim.now, profile=profiler)


class TestTrialRunnerIsolation:
    def test_bit_identical_at_any_worker_count_with_profiling(self):
        specs = seed_specs([5, 1, 3, 2], profile=True)
        serial = TrialRunner(profiled_trial, workers=1).run(specs)
        parallel = TrialRunner(profiled_trial, workers=2).run(specs)
        # the PR 4 contract: profiling rides TrialResult.profile, never
        # the monitor, so the merge stays bit-identical
        assert serial.monitor.summary() == parallel.monitor.summary()
        assert serial.metrics_by_index() == parallel.metrics_by_index()
        for key in serial.monitor.summary():
            assert "profile" not in key and "wall" not in key

    def test_profiles_merge_across_workers(self):
        sweep = TrialRunner(profiled_trial, workers=2).run(
            seed_specs([5, 1, 3, 2], profile=True))
        assert sweep.profile is not None
        assert sweep.profile["events"] == sum(
            o.metrics["events"] for o in sweep.outcomes)
        names = {r["name"] for r in sweep.profile["handlers"]}
        assert "tick" in names

    def test_unprofiled_sweep_has_no_profile(self):
        sweep = TrialRunner(profiled_trial, workers=2).run(seed_specs([1, 2]))
        assert sweep.profile is None
