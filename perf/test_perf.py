"""Tests of the benchmark itself, on scaled-down inputs.

    PYTHONPATH=src python -m pytest perf -q
"""

import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

from perf import harness, layers, workloads
from perf.workloads import Meter

ROOT = pathlib.Path(__file__).resolve().parent.parent

SMALL = {
    "fig1_queries": workloads.Fig1Queries(queries=12),
    "city_wms": workloads.CityWms(sites=20, handhelds=10, burst_per_class=80,
                                  steady_batches=10, steady_batch=10),
    "swarm_broadcast": workloads.SwarmBroadcast(nodes=400, sources=40, sim_s=1.0, groups=4),
    "market_churn": workloads.MarketChurn(services=60, hosts=12, ops=80),
}


def _inputs_key(workload, seed):
    """A comparable fingerprint of a workload's generated inputs."""
    inputs = workload.inputs(seed)
    if isinstance(workload, workloads.SwarmBroadcast):
        return inputs["positions"].tobytes() + inputs["capacities"].tobytes()
    if isinstance(workload, workloads.CityWms):
        burst, batches = inputs
        return [t.ops for t in burst] + [t.ops for b in batches for t in b]
    if isinstance(workload, workloads.MarketChurn):
        initial, ops = inputs
        return ([(d.name, d.attributes) for d in initial],
                [(kind, getattr(arg, "name", arg)) for kind, arg in ops])
    return inputs


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_digest(name):
    workload = SMALL[name]
    first = workload.episode(7, Meter())
    second = workload.episode(7, Meter())
    assert not first.errors and first.failed == 0
    assert first.digest == second.digest
    assert first.outcome == second.outcome


@pytest.mark.parametrize("name", sorted(SMALL))
def test_different_seeds_different_inputs(name):
    workload = SMALL[name]
    assert _inputs_key(workload, 1) == _inputs_key(workload, 1)
    assert _inputs_key(workload, 1) != _inputs_key(workload, 2)


def test_episode_seeds_depend_on_run_seed_and_episode():
    seeds = {workloads.episode_seed(s, k) for s in (1, 2) for k in range(3)}
    assert len(seeds) == 6
    assert workloads.episode_seed(1, 0) == workloads.episode_seed(1, 0)


def test_city_districts_are_seeded_separately():
    city = SMALL["city_wms"]
    seeds = city.district_seeds(3)
    assert len(set(seeds)) == city.districts
    specs = workloads.seed_specs(seeds, city=city, meter=Meter())
    digests = [workloads._run_district(spec).metrics["digest"] for spec in specs]
    assert len(set(digests)) == city.districts


def test_market_holds_the_mix_exactly_with_searches_in_sessions():
    market = workloads.MarketChurn()
    kinds = [kind for kind, _ in market.inputs(5)[1]]
    assert {k: kinds.count(k) for k in set(kinds)} == \
        {k: round(share * market.ops) for k, share in market.mix}
    runs = "".join("s" if k == "search" else "." for k in kinds).split(".")
    assert all(len(run) % market.search_session == 0 for run in runs)


def test_corrupted_outputs_fail_the_checks():
    # fig1: an unsuccessful outcome, or a query that never completed
    episode_outcomes = [[types.SimpleNamespace(success=True, error="")]]
    assert workloads.check_fig1(episode_outcomes) == []
    assert workloads.check_fig1([[types.SimpleNamespace(success=False, error="x")]])
    assert workloads.check_fig1([None])

    # city: a lost task, a starvation episode, a probe outside contention
    good = {"submitted": 10, "completed": 10, "failed": 0, "starved": 0,
            "probe_contended": True}
    assert workloads.check_city([good]) == []
    for corrupt in ({"completed": 9}, {"starved": 1}, {"probe_contended": False}):
        assert workloads.check_city([{**good, **corrupt}])

    # swarm: ledger below the batteries, or above by more than one draw per death
    assert workloads.check_swarm(1.0, 1.0, 0, 1e-5) == []
    assert workloads.check_swarm(1.0 + 5e-6, 1.0, 1, 1e-5) == []
    assert workloads.check_swarm(1.0, 1.0 + 1e-6, 0, 1e-5)
    assert workloads.check_swarm(1.0 + 3e-5, 1.0, 2, 1e-5)

    # market: a ranking that differs in one score
    ranking = [("a", 4, 0.5), ("b", 3, 0.25)]
    assert workloads.check_market(ranking, list(ranking), 0) == []
    assert workloads.check_market([("a", 4, 0.5), ("b", 3, 0.26)], ranking, 0)


class _FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def _fixture_module(clock):
    mod = types.ModuleType("perf_layers_fixture")

    def inner():
        clock.now += 7

    def outer():
        clock.now += 5
        mod.inner()
        clock.now += 3

    mod.inner, mod.outer = inner, outer
    return mod


def test_nested_self_time_is_total_minus_child(monkeypatch):
    clock = _FakeClock()
    mod = _fixture_module(clock)
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    ops = (layers.Op("outer", ("perf_layers_fixture.outer",)),
           layers.Op("inner", ("perf_layers_fixture.inner",)))
    tracer = layers.LayerTracer(ops, clock=clock)
    with tracer.installed():
        mod.outer()  # outside any window: not recorded
        with tracer.window():
            mod.outer()
            clock.now += 2  # time outside every wrapped call
    assert mod.outer.__name__ == "outer" and not hasattr(mod.outer, "__wrapped__")
    calls, total, own = tracer.tree[("outer", None)]
    child_calls, child_total, child_own = tracer.tree[("inner", "outer")]
    assert (calls, child_calls) == (1, 1)
    assert (total, child_total) == (15, 7)
    assert own == total - child_total == 8
    assert child_own == child_total
    assert tracer.wall_ns == 17 and tracer.unattributed_ns() == 2
    m = tracer.metrics()
    assert m["outer.self_share"] + m["inner.self_share"] + 2 / 17 == pytest.approx(1.0)


def test_unresolvable_names_are_reported_missing():
    ops = (layers.Op("gone", ("repro.simkernel.simulator.Simulator.no_such_method",
                              "repro.no_such_module.f", "nosuchpackage.f")),
           layers.Op("simkernel.step", ("repro.simkernel.simulator.Simulator.step",)))
    tracer = layers.LayerTracer(ops)
    with tracer.installed():
        pass
    assert tracer.missing == list(ops[0].targets)
    assert tracer.metrics()["gone.calls"] == 0.0


def test_every_wrap_target_resolves():
    assert [d for op in layers.WRAPS for d in op.targets if layers.resolve(d) is None] == []


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_harness_metrics():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(harness.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_output_names_every_metric_with_its_unit(trace, tmp_path):
    spec = _benchmark_json()
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    for name, workload in SMALL.items():
        run = harness.measure(workload, 1, 0.0, trace, out_dir=tmp_path)
        assert run.result["correct"], run.lines
        assert {m: v["unit"] for m, v in run.result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in run.result["metrics"].values())
        if trace:
            doc = json.loads((tmp_path / f"{name}.layers.json").read_text())
            values = {m: v["value"] for m, v in run.result["metrics"].items()}
            shares = sum(v for m, v in values.items() if m.endswith(".self_share"))
            assert shares + values["trace.unattributed_share"] == pytest.approx(1.0)
            assert doc["tree"] and doc["missing"] == []
        else:
            assert all(v["value"] > 0 for v in run.result["metrics"].values())


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perf/run.py", "--workload", "fig1_queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
