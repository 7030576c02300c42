"""E15 -- city-scale workload management (10^5 queries, mixed priorities).

The paper's pervasive grid serves "millions of users" walking around a
city with handheld devices.  This experiment drives the workload layer
at city scale: four independent districts (trial worlds), each with 500
heterogeneous grid sites and 250 simulated handheld users, submit
25,000 queries apiece -- 100,000 end to end -- through the
:class:`~repro.wms.service.WorkloadManager`'s central task queue and
pilot fleet.  Each district runs two phases:

* **burst**: every priority class floods 2,000 queries at t=0.  While
  all three classes are still backlogged, a probe snapshots per-class
  drained work; the Jain index over weight-normalized shares
  (``drained_c / weight_c``) measures how faithfully the fair-share
  drain tracks the 6/3/1 weights (1.0 = perfect).
* **steady**: the remaining 19,000 queries arrive in base-station
  batches at ~70% of fleet capacity, then the district drains.

Headline metrics: sustained queries per simulated second, queue-latency
p50/p95/p99 read from the bounded-telemetry sketch of
``wms.queue_latency`` (the merged monitor, so percentiles cover all
10^5 queries), and the mean Jain fairness index.  Everything except the
wall-clock row (keyed by worker count) is bit-identical at any
``--workers N`` -- the queue service consults no RNG, the per-world ops
draws are seeded, and the monitor merge is seed-ordered -- so E15
extends the CI determinism gate.
"""

import numpy as np

from repro.grid.resource import GridResource
from repro.observability.sketch import TelemetryConfig
from repro.parallel import TrialResult, run_trials, seed_specs
from repro.simkernel import Monitor, Simulator
from repro.wms import DEFAULT_CLASSES, Task, WorkloadManager

N_WORLDS = 4
N_SITES = 500           # per world: 2,000 sites city-wide
N_HANDHELDS = 250       # per world: 1,000 users city-wide
BURST_PER_CLASS = 2000  # phase A: 6,000 queries per world
STEADY_BATCHES = 200    # phase B: 200 batches x 95 = 19,000 per world
STEADY_BATCH = 95
STEADY_START_S = 5.0
STEADY_EVERY_S = 0.05
PROBE_AT_S = 0.6        # all three classes still backlogged here
QUERIES_PER_WORLD = 3 * BURST_PER_CLASS + STEADY_BATCHES * STEADY_BATCH
SEED = 15

#: City-scale telemetry must stay bounded: small raw tails, sketch tail.
TELEMETRY = TelemetryConfig(histogram_max_raw=256, series_max_raw=256)


def _sites(sim):
    # heterogeneous fleet: rates 1e6..1e7 ops/s, deterministic layout
    return [GridResource(sim, f"site{i}", 1e6 * (1 + i % 10))
            for i in range(N_SITES)]


def _ops(rng):
    # per-query grid work: uniform around 1e6 ops (mean service ~0.2 s
    # on a mid-fleet site)
    return float(rng.uniform(5e5, 1.5e6))


def jain_index(shares):
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), 1.0 = equal."""
    x = np.asarray(list(shares), dtype=float)
    if not len(x) or not x.any():
        return 0.0
    return float(x.sum() ** 2 / (len(x) * (x * x).sum()))


def run_district(spec):
    """One city district: 500 sites, 250 users, 25,000 queries."""
    rng = np.random.default_rng(spec.seed)
    sim = Simulator()
    monitor = Monitor()
    monitor.configure(TELEMETRY)
    wm = WorkloadManager(sim, _sites(sim), monitor=monitor)
    class_names = [c.name for c in DEFAULT_CLASSES]

    def handheld(i):
        return f"handheld{i % N_HANDHELDS}"

    # -- phase A: the burst, one flood per priority class --------------
    burst = [Task(ops=_ops(rng), priority_class=name, owner=handheld(i))
             for name in class_names for i in range(BURST_PER_CLASS)]
    wm.submit_bulk(burst)

    probe = {}

    def take_probe():
        stats = wm.queue.class_stats()
        assert all(s["waiting"] > 0 for s in stats.values()), (
            "fairness probe must land while every class is backlogged")
        probe.update({name: s["ops_completed"] / s["weight"]
                      for name, s in stats.items()})

    sim.schedule(PROBE_AT_S, take_probe, label="e15.probe")

    # -- phase B: steady base-station batches at ~70% of capacity ------
    def flush_batch(k):
        wm.submit_bulk([
            Task(ops=_ops(rng), priority_class=class_names[i % 3],
                 owner=handheld(k * STEADY_BATCH + i))
            for i in range(STEADY_BATCH)
        ])
        if k + 1 < STEADY_BATCHES:
            sim.schedule(STEADY_EVERY_S, lambda: flush_batch(k + 1),
                         label="e15.batch")

    sim.schedule(STEADY_START_S, lambda: flush_batch(0), label="e15.batch")
    sim.run()

    stats = wm.stats()
    completed = sum(s["completed"] for s in stats["classes"].values())
    return TrialResult(
        monitor=monitor,
        metrics={
            "completed": completed,
            "failed": sum(s["failed"] for s in stats["classes"].values()),
            "jain": jain_index(probe.values()),
            "sim_time_s": sim.now,
            "starved": monitor.counters().get("wms.tasks_starved", 0.0),
        },
        sim_time_s=sim.now,
    )


def run_sweep(workers: int = 1):
    # district d draws its queries from seed SEED + d (15, 16, 17, 18)
    specs = seed_specs(range(SEED, SEED + N_WORLDS))
    sweep = run_trials(run_district, specs, workers=workers)
    cells = {o.spec.index: o.metrics for o in sweep.outcomes}
    return cells, sweep


def test_e15_city_scale(benchmark, table, once, record, workers):
    cells, sweep = once(benchmark, lambda: run_sweep(workers))

    table(
        "E15: city-scale WMS, 4 districts x 25,000 queries",
        ["district", "completed", "failed", "jain", "sim s"],
        [[d, int(c["completed"]), int(c["failed"]), c["jain"], c["sim_time_s"]]
         for d, c in sorted(cells.items())],
    )

    total = sum(c["completed"] for c in cells.values())
    assert total == N_WORLDS * QUERIES_PER_WORLD == 100_000, (
        "E15 must run 10^5 queries end to end")
    assert all(c["failed"] == 0 for c in cells.values())
    assert all(c["starved"] == 0.0 for c in cells.values()), (
        "fair share must prevent starvation episodes")

    # fairness: the weighted drain tracks the 6/3/1 weights closely
    jains = [cells[d]["jain"] for d in sorted(cells)]
    mean_jain = sum(jains) / len(jains)
    assert mean_jain > 0.95, f"fair-share drain drifted: Jain {mean_jain:.3f}"

    # latency percentiles over all 10^5 queries, via the merged sketch
    latency = sweep.monitor.histogram("wms.queue_latency")
    p50, p95, p99 = (latency.percentile(q) for q in (50, 95, 99))
    assert 0.0 <= p50 <= p95 <= p99
    assert p99 < 10.0, f"burst backlog must drain: p99 {p99:.2f}s"

    sim_s = sum(c["sim_time_s"] for c in cells.values())
    qps = total / sim_s
    assert qps > 100.0

    record("E15", "queries_completed", float(total), unit="1",
           direction="higher", seed=SEED, n_sites=N_WORLDS * N_SITES)
    record("E15", "sustained_qps", qps, unit="1/s", direction="higher",
           seed=SEED, n_sites=N_WORLDS * N_SITES)
    for name, value in (("queue_latency_p50", p50),
                        ("queue_latency_p95", p95),
                        ("queue_latency_p99", p99)):
        record("E15", name, value, unit="s", direction="lower", seed=SEED,
               n_sites=N_WORLDS * N_SITES)
    record("E15", "jain_fairness", mean_jain, unit="1", direction="higher",
           seed=SEED, n_classes=len(DEFAULT_CLASSES))

    # wall-clock facts are keyed by worker count so determinism gates
    # never compare them across serial/parallel runs
    record("E15", "wall_clock_per_sim_second", sweep.trial_wall_s / sim_s,
           unit="s/s", direction="either", workers=sweep.workers)
