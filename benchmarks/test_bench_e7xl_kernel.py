"""E7-XL -- simulation-substrate scale: 10k-100k nodes, same results.

The substrate holds smartdust-scale populations without changing a
single observable result.  This benchmark drives such a world --
constant-density random placement, random-waypoint mobility on 20% of
the fleet, periodic local broadcasts with loss and energy accounting,
battery deaths -- on the grid-hash topology index, at 10k nodes (the
``optimized`` variant, whose deterministic rows are gated at tolerance
0) and optionally at a larger ``xl`` size.  The dense O(n^2) adjacency
this used to race (~380x slower at 10k) is now the test oracle in
``tests/network/oracle.py``, which proves the index bit-identical.  The
wall-clock numbers (``wall_clock_per_sim_second``,
``events_per_wall_second``, ``topology_recompute_ms``) land in
``BENCH_results.json`` keyed by variant/worker count so the tolerance-0
determinism gates never compare wall clock across runs.

Scale knobs (env):

* ``E7XL_N``       -- fleet size (default 10,000; go to 100,000 for the
  full XL run -- the ``xl`` variant runs at that size beside the 10k
  ``optimized`` one).
* ``E7XL_SIM_S``   -- simulated seconds (default 4).
* ``E7XL_PROFILE_DIR`` -- when set, per-variant HookProfiler exports are
  written there for ``python -m repro.observability profile``.
"""

import itertools
import json
import math
import os
import time

import numpy as np

from repro.network import (
    BatteryBank,
    Message,
    RadioModel,
    Topology,
    WirelessNetwork,
)
from repro.network.mobility import RandomWaypoint, random_positions
from repro.observability.profiling import HookProfiler
from repro.parallel import TrialResult, cell_specs, run_trials
from repro.simkernel import Monitor, RandomStreams, Simulator

N_NODES = int(os.environ.get("E7XL_N", "10000"))
COMMON_N = min(N_NODES, 10_000)   # size of the gated optimized variant
SIM_S = float(os.environ.get("E7XL_SIM_S", "4"))
SEED = 7

RANGE_M = 10.0
TARGET_DEGREE = 8.0          # constant density: area grows with n
MOBILE_EVERY = 5             # every 5th node is mobile (20%)
TICK_S = 1.0                 # mobility tick => topology recompute
N_SOURCES = 150              # broadcast sources per blast
BLAST_EVERY_S = 0.5
MSG_BITS = 256.0
#: Heterogeneous finite batteries: busy sources burn ~1.5e-5 J per blast,
#: so the weaker cells die mid-run and exercise kill() under load.
BATTERY_RANGE_J = (5e-5, 2e-4)


def _area_m(n: int) -> float:
    """Square side keeping mean unit-disc degree ~= TARGET_DEGREE."""
    return math.sqrt(n * math.pi * RANGE_M ** 2 / TARGET_DEGREE)


def run_world(spec):
    """One kernel configuration over the full mobility+broadcast workload."""
    p = spec.params
    n = p["n"]
    streams = RandomStreams(spec.seed)
    area = _area_m(n)
    positions = random_positions(n, area, streams.get("placement"))
    topology = Topology(positions, RANGE_M)
    sim = Simulator()
    profiler = None
    if spec.profile:
        profiler = HookProfiler()
        sim.profiler = profiler
    monitor = Monitor()
    bank = BatteryBank(streams.get("batteries").uniform(*BATTERY_RANGE_J, n))
    radio = RadioModel(bandwidth_bps=250_000.0, latency_s=0.005,
                       loss_prob=0.1, range_m=RANGE_M)
    net = WirelessNetwork(sim, topology, radio, batteries=bank.batteries(),
                          rng=streams.get("loss"), monitor=monitor)

    received = np.zeros(n, dtype=np.int64)

    def attach(i):
        def recv(_msg):
            received[i] += 1

        net.nodes[i].receive = recv

    for i in range(n):
        attach(i)

    mobile = list(range(0, n, MOBILE_EVERY))
    waypoint = RandomWaypoint(topology, mobile, area,
                              streams.get("mobility"), tick_s=TICK_S)
    sources = list(range(0, n, max(1, n // N_SOURCES)))[:N_SOURCES]
    recompute_s = [0.0]
    msg_ids = itertools.count()

    def tick():
        # time the tick's topology work (bulk move + first neighbor query)
        t0 = time.perf_counter()
        waypoint.step(TICK_S)
        topology.neighbors(sources[0])
        recompute_s[0] += time.perf_counter() - t0
        if sim.now + TICK_S <= SIM_S:
            sim.schedule(TICK_S, tick, label="e7xl.tick")

    def blast():
        for src in sources:
            if topology.is_alive(src):
                net.broadcast_local(src, Message(
                    msg_id=f"b{next(msg_ids)}", src=src, dst=None,
                    size_bits=MSG_BITS))
        if sim.now + BLAST_EVERY_S <= SIM_S:
            sim.schedule(BLAST_EVERY_S, blast, label="e7xl.blast")

    sim.schedule(TICK_S, tick, label="e7xl.tick")
    sim.schedule(BLAST_EVERY_S, blast, label="e7xl.blast")

    wall0 = time.perf_counter()
    sim.run(until=SIM_S)
    wall_s = time.perf_counter() - wall0

    counters = monitor.counters()
    return TrialResult(
        monitor=monitor,
        metrics={
            "variant": p["variant"],
            "n": n,
            "deliveries": int(received.sum()),
            "events_executed": sim.events_executed,
            "energy_mj": counters.get("net.energy_j", 0.0) * 1e3,
            "node_deaths": counters.get("net.node_deaths", 0.0),
            "wall_s": wall_s,
            "wall_per_sim_s": wall_s / SIM_S,
            "events_per_wall_s": sim.events_executed / wall_s,
            "topology_recompute_ms": recompute_s[0] * 1e3,
        },
        sim_time_s=sim.now,
        profile=profiler,
    )


def test_e7xl_kernel_scale(benchmark, table, once, record, workers):
    cells = [{"variant": "optimized", "n": COMMON_N}]
    if N_NODES > COMMON_N:
        cells.append({"variant": "xl", "n": N_NODES})
    specs = cell_specs(cells, seed=SEED, profile=True)
    sweep = once(benchmark, lambda: run_trials(run_world, specs,
                                               workers=workers))
    assert sweep.failures == 0
    by_variant = {o.metrics["variant"]: o.metrics for o in sweep.outcomes}
    opt = by_variant["optimized"]

    table(
        f"E7-XL: kernel scale, n={COMMON_N}"
        + (f" / n={N_NODES} XL" if "xl" in by_variant else ""),
        ["variant", "n", "deliveries", "events", "wall s",
         "recompute ms", "ev/wall s"],
        [[m["variant"], m["n"], m["deliveries"], m["events_executed"],
          m["wall_s"], m["topology_recompute_ms"], m["events_per_wall_s"]]
         for m in by_variant.values()],
    )

    assert COMMON_N >= 10_000, "E7-XL must exercise >= 10k nodes"
    assert opt["deliveries"] > 0
    assert opt["node_deaths"] > 0, "workload must exercise battery deaths"

    # per-variant wall-clock profiles
    profile_dir = os.environ.get("E7XL_PROFILE_DIR")
    if profile_dir:
        os.makedirs(profile_dir, exist_ok=True)
        for outcome in sweep.outcomes:
            doc = outcome.result.profile
            if doc is not None:
                path = os.path.join(
                    profile_dir,
                    f"e7xl-profile-{outcome.metrics['variant']}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)

    # -- deterministic rows: identical for any worker count -----------
    record("E7XL", "deliveries", float(opt["deliveries"]), unit="1",
           direction="higher", seed=SEED, n=COMMON_N, sim_s=SIM_S)
    record("E7XL", "events_executed", float(opt["events_executed"]),
           unit="1", direction="either", seed=SEED, n=COMMON_N, sim_s=SIM_S)
    record("E7XL", "energy_mj", opt["energy_mj"], unit="mJ",
           direction="either", seed=SEED, n=COMMON_N, sim_s=SIM_S)
    record("E7XL", "node_deaths", opt["node_deaths"], unit="1",
           direction="either", seed=SEED, n=COMMON_N, sim_s=SIM_S)

    # -- wall-clock rows: keyed by variant + requested worker count, so
    #    the tolerance-0 serial-vs-parallel gate never sees them as
    #    shared (a one-cell sweep always reports sweep.workers == 1) ---
    record("E7XL", "wall_clock_per_sim_second", opt["wall_per_sim_s"],
           unit="s/s", direction="lower", variant="optimized",
           n=opt["n"], workers=workers, sim_s=SIM_S)
    record("E7XL", "events_per_wall_second", opt["events_per_wall_s"],
           unit="1/s", direction="higher", variant="optimized",
           n=opt["n"], workers=workers, sim_s=SIM_S)
    record("E7XL", "topology_recompute_ms", opt["topology_recompute_ms"],
           unit="ms", direction="lower", variant="optimized",
           n=opt["n"], workers=workers, sim_s=SIM_S)

    if "xl" in by_variant:
        xl = by_variant["xl"]
        record("E7XL", "deliveries", float(xl["deliveries"]), unit="1",
               direction="higher", seed=SEED, n=xl["n"], sim_s=SIM_S)
        record("E7XL", "wall_clock_per_sim_second", xl["wall_per_sim_s"],
               unit="s/s", direction="lower", variant="xl",
               n=xl["n"], workers=workers, sim_s=SIM_S)
