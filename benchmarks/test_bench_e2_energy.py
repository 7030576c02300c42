"""E2 -- sensor energy per execution model per query type.

Operationalizes the claim the system is built on (§4 via TAG):
"performing the computation for certain type of aggregate queries inside
the sensor network result[s] in saving the energy of the sensors".

Methodology follows TAG: the query is disseminated once, then runs for
several epochs; we report the *steady-state per-epoch* energy (epochs
after the first), which is where the plans differ -- dissemination is a
shared one-off cost.  Expected shape: for aggregates,
tree < cluster/region < centralized = grid = handheld (raw shipping);
for complex queries only region-averaging saves energy.

The 15 (query class x model) cells are independent simulation worlds, so
the sweep shards them through :class:`repro.parallel.TrialRunner`
(``pytest benchmarks/ --workers N``); the merged monitor -- including the
route-cache counters -- is bit-identical at any worker count.
"""

import math

from repro.core import PervasiveGridRuntime, StaticPolicy
from repro.network import record_route_cache_metrics
from repro.observability import QueryCostLedger, Trace, record_from_dict
from repro.parallel import TrialResult, cell_specs, run_trials
from repro.queries.models import ALL_MODELS

QUERIES = {
    "simple": "SELECT value FROM sensors WHERE sensor_id = 24 EPOCH DURATION 5 FOR 25",
    "aggregate": "SELECT AVG(value) FROM sensors EPOCH DURATION 5 FOR 25",
    "complex": "SELECT DISTRIBUTION(value) FROM sensors EPOCH DURATION 5 FOR 25",
}


def run_cell(spec):
    """One (query class, model) world; runs in a worker process."""
    model_name = spec.params["model"]
    runtime = PervasiveGridRuntime(
        n_sensors=49, area_m=60.0, seed=spec.seed, policy=StaticPolicy(model_name),
        grid_resolution=30, trace=spec.trace, profile=spec.profile,
    )
    outcomes = runtime.query(QUERIES[spec.params["qclass"]])
    record_route_cache_metrics(runtime.deployment.topology, runtime.monitor)
    good = [o for o in outcomes if o.success and o.model == model_name]
    if len(good) < 2:
        first = steady = None
    else:
        first = good[0].energy_j
        steady = sum(o.energy_j for o in good[1:]) / len(good[1:])
    return TrialResult(monitor=runtime.monitor,
                       metrics={"first": first, "steady": steady},
                       sim_time_s=runtime.sim.now,
                       trace=runtime.tracer if spec.trace else None,
                       profile=runtime.profiler)


def run_sweep(workers: int = 1):
    # every cell traces (feeds the per-query cost ledger) and profiles
    # (wall-clock attribution); neither touches the merged monitor, so
    # the bit-identical-at-any-worker-count contract is unaffected
    specs = cell_specs(
        [{"qclass": qclass, "model": cls.name}
         for qclass in QUERIES for cls in ALL_MODELS],
        seed=11, trace=True, profile=True,
    )
    sweep = run_trials(run_cell, specs, workers=workers)
    results = {
        (o.spec.params["qclass"], o.spec.params["model"]):
            (o.metrics["first"], o.metrics["steady"])
        for o in sweep.outcomes
    }
    return results, sweep


def test_e2_energy_per_model(benchmark, table, once, record, workers):
    results, sweep = once(benchmark, lambda: run_sweep(workers))
    model_names = [cls.name for cls in ALL_MODELS]
    rows = []
    for qclass in QUERIES:
        row = [qclass]
        for name in model_names:
            _, steady = results[(qclass, name)]
            row.append(steady * 1e3 if steady is not None else math.nan)
        rows.append(row)
    table(
        "E2: steady-state per-epoch sensor energy (mJ), by execution model",
        ["query class"] + model_names,
        rows,
    )
    first_rows = []
    for qclass in QUERIES:
        row = [qclass]
        for name in model_names:
            first, _ = results[(qclass, name)]
            row.append(first * 1e3 if first is not None else math.nan)
        first_rows.append(row)
    table(
        "E2 (supplement): first-epoch energy incl. query dissemination (mJ)",
        ["query class"] + model_names,
        first_rows,
    )

    steady = {k: (v[1] if v[1] is not None else math.inf) for k, v in results.items()}
    # the paper's headline: in-network aggregation saves energy on aggregates
    assert steady[("aggregate", "tree")] < 0.75 * steady[("aggregate", "centralized")]
    assert steady[("aggregate", "tree")] < steady[("aggregate", "grid")]
    assert steady[("aggregate", "cluster")] < steady[("aggregate", "centralized")]
    # region averaging is the energy saver for complex queries
    assert steady[("complex", "region")] < steady[("complex", "centralized")]
    # tree/cluster cannot answer complex queries at all
    assert results[("complex", "tree")] == (None, None)
    assert results[("complex", "cluster")] == (None, None)
    # dissemination dominates the first epoch: first >> steady for tree
    first_tree = results[("aggregate", "tree")][0]
    assert first_tree > 2 * steady[("aggregate", "tree")]

    # persist the headline numbers into the bench trajectory
    for qclass, model in (("aggregate", "tree"), ("aggregate", "cluster"),
                          ("aggregate", "centralized"),
                          ("complex", "region"), ("complex", "centralized")):
        record("E2", f"steady_mj[{qclass}/{model}]",
               steady[(qclass, model)] * 1e3, unit="mJ", direction="lower",
               seed=11, n_sensors=49)
    record("E2", "tree_vs_centralized_ratio[aggregate]",
           steady[("aggregate", "tree")] / steady[("aggregate", "centralized")],
           direction="lower", seed=11, n_sensors=49)

    # the static-topology workload must actually exercise the route cache,
    # and the hit rate is deterministic (identical at any worker count).
    # Repeated tree and flood requests are answered by the topology's
    # per-version memo before they become route queries, so the misses
    # (BFS runs) are the row that catches extra routing work.
    hits = sweep.monitor.counter("net.route_cache.hits").value
    misses = sweep.monitor.counter("net.route_cache.misses").value
    assert hits > 0, "static-topology E2 should serve route queries from cache"
    record("E2", "route_cache_hit_rate", hits / (hits + misses),
           direction="higher", seed=11, n_sensors=49)
    record("E2", "route_cache_misses", misses, unit="BFS runs",
           direction="lower", seed=11, n_sensors=49)
    # per-query cost ledger over the merged trace: deterministic fold, so
    # these summaries are gated at zero tolerance across worker counts
    summary = QueryCostLedger.from_trace(
        Trace(map(record_from_dict, sweep.trace))).summary()
    assert summary["queries"] > 0 and summary["succeeded"] > 0
    for name in ("queries", "succeeded", "energy_total_j",
                 "bytes_on_air_total", "latency_p95_s"):
        record("E2", f"ledger_{name}", float(summary[name]),
               direction="either", seed=11, n_sensors=49)

    # wall-clock headline for the E7-XL speed work: record-only (machine-
    # noisy), keyed by worker count so determinism gates never compare it
    sim_s = sum(o.result.sim_time_s for o in sweep.outcomes if o.result)
    record("E2", "wall_clock_per_sim_second", sweep.trial_wall_s / sim_s,
           unit="s/s", direction="either", workers=sweep.workers)
    assert sweep.profile is not None and sweep.profile["events"] > 0
    if sweep.workers > 1:
        # wall-clock facts are keyed by worker count so serial baselines
        # never compare against them (determinism gates stay clean)
        record("E2", "parallel_speedup", sweep.speedup, unit="x",
               direction="higher", workers=sweep.workers)
