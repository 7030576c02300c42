"""E13 -- end-to-end fault tolerance of the composition platform.

"Detection of faults and modification of execution paths are integral
parts of such a system ... the grid middleware should hide these
failures from the application."

Protocol: the stream-mining composition pipeline runs against three
scripted fault schedules (random crash storms, rolling regional
blackouts, and flapping hosts) at three resilience levels:

* ``none``     -- single-shot discovery, no execution retries,
                  no circuit breakers;
* ``retries``  -- manager retry/rebind plus discovery retry with
                  exponential backoff;
* ``full``     -- retries plus per-provider circuit breakers and a
                  hedged discovery wave.

Expected shape: resilience-on strictly dominates resilience-off on
completion rate for every schedule, breakers earn their keep under
flapping (they steer rebinds away from recently-bad hosts), and the
whole table is a pure function of the seed.

The nine (schedule x level) cells are independent worlds, sharded
through :class:`repro.parallel.TrialRunner` (``--workers N``); the
merged table and monitor are bit-identical at any worker count.
"""

import numpy as np

from repro.agents import AgentPlatform
from repro.composition import (
    Binder,
    CompositionManager,
    HTNPlanner,
    ReactiveComposer,
    ServiceProviderAgent,
    build_pervasive_domain,
)
from repro.discovery import (
    BrokerAgent,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceDescription,
    build_service_ontology,
)
from repro.faults import (
    FaultDomain,
    FaultInjector,
    NodeCrash,
    RegionBlackout,
    crash_schedule,
    flapping_schedule,
)
from repro.network import Topology
from repro.observability import QueryCostLedger, Trace, Tracer, record_from_dict
from repro.observability.profiling import HookProfiler
from repro.parallel import TrialResult, cell_specs, run_trials
from repro.resilience import BreakerBoard, Hedge, RetryPolicy
from repro.simkernel import Monitor, RandomStreams, Simulator

N_COMPOSITIONS = 25
GAP_S = 40.0
HORIZON_S = N_COMPOSITIONS * GAP_S
SEED = 11

# one geographic cluster per service category so a regional blackout
# takes out a whole redundancy group at once
PROVIDER_SPEC = [
    ("DecisionTreeService", 3, (0.0, 0.0)),
    ("FourierSpectrumService", 3, (100.0, 0.0)),
    ("EnsembleCombinerService", 2, (200.0, 0.0)),
]

LEVELS = ("none", "retries", "full")
SCHEDULES = ("crash-storm", "blackout", "flapping")


class FaultWorld:
    """Composition platform whose provider hosts obey a fault schedule."""

    def __init__(self, schedule: str, level: str, seed: int = SEED,
                 trace: bool = False, profile: bool = False):
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.platform = AgentPlatform(self.sim)
        self.registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
        self.monitor = Monitor()
        # observability is additive: tracing/profiling never perturb the
        # deterministic metrics (the replay assertion below runs untraced)
        self.tracer = Tracer(self.sim) if trace else None
        self.sim.tracer = self.tracer
        self.profiler = HookProfiler() if profile else None
        self.sim.profiler = self.profiler

        retries = 0 if level == "none" else 3
        self.breakers = (
            BreakerBoard(self.sim, self.monitor,
                         failure_threshold=1, recovery_timeout_s=90.0)
            if level == "full" else None
        )
        self.manager = CompositionManager(
            "mgr", self.sim, Binder(self.registry), mode="centralized",
            timeout_s=30.0, max_retries=retries, breakers=self.breakers,
            monitor=self.monitor, tracer=self.tracer,
        )
        self.platform.register(self.manager)
        self.platform.register(BrokerAgent("broker", self.registry))

        retry = (
            RetryPolicy(max_attempts=5, base_delay_s=5.0, max_delay_s=30.0)
            if level != "none" else None
        )
        hedge = Hedge(delay_s=5.0, max_hedges=1) if level == "full" else None
        self.composer = ReactiveComposer(
            "composer", HTNPlanner(build_pervasive_domain()), self.manager,
            "broker", discovery_timeout_s=10.0,
            retry=retry, hedge=hedge, rng=self.streams.get("discovery-retry"),
        )
        self.platform.register(self.composer)

        # provider hosts, clustered per category
        self.providers = []
        positions = []
        jitter = self.streams.get("placement")
        host = 0
        for category, count, center in PROVIDER_SPEC:
            for i in range(count):
                name = f"{category.lower()}-{i}"
                desc = ServiceDescription(name=f"svc-{name}", category=category,
                                          provider=name, host_node=host, ops=5e8)
                agent = ServiceProviderAgent(name, desc, self.sim)
                self.platform.register(agent)
                self.registry.advertise(desc)
                self.providers.append((name, desc, agent))
                positions.append(np.asarray(center) + jitter.uniform(-5.0, 5.0, 2))
                host += 1
        self.topology = Topology(np.stack(positions), range_m=1.0)

        domain = FaultDomain(sim=self.sim, monitor=self.monitor,
                             topology=self.topology,
                             on_node_change=self._on_node_change)
        self.injector = FaultInjector(domain)
        self.injector.schedule_all(self._build_schedule(schedule))

    def _on_node_change(self, node: int, up: bool) -> None:
        name, desc, agent = self.providers[node]
        if up:
            if not self.platform.is_registered(name):
                self.platform.register(agent)
            self.registry.advertise(desc)
        else:
            if self.platform.is_registered(name):
                self.platform.unregister(name)
            self.registry.withdraw_host(node)

    def _build_schedule(self, schedule: str):
        if schedule == "crash-storm":
            rng = self.streams.get("fault-schedule")
            return crash_schedule(rng, nodes=range(len(self.providers)),
                                  horizon_s=HORIZON_S, rate_per_s=0.06,
                                  mean_downtime_s=25.0)
        if schedule == "blackout":
            # each 45 s blackout eclipses one composition start, rotating
            # through the category clusters
            centers = [center for _, _, center in PROVIDER_SPEC]
            return [
                RegionBlackout(center=centers[i % len(centers)], radius_m=20.0,
                               at_s=t, duration_s=45.0)
                for i, t in enumerate(np.arange(60.0, HORIZON_S, 160.0))
            ]
        if schedule == "flapping":
            # the first host of every category flaps with a 30 s period,
            # deliberately coprime-ish with the 40 s composition cadence so
            # the phase sweeps across the whole cycle
            faults = []
            host = 0
            for _, count, _ in PROVIDER_SPEC:
                faults.extend(flapping_schedule(node=host, horizon_s=HORIZON_S,
                                                up_s=17.0, down_s=13.0,
                                                start_s=host * 3.7))
                host += count
            return faults
        raise ValueError(f"unknown schedule {schedule!r}")

    def run(self):
        results = []
        for i in range(N_COMPOSITIONS):
            got = []
            self.composer.compose("analyze-stream", got.append,
                                  {"n_partitions": 2})
            started = self.sim.now
            while not got:
                if not self.sim.step():
                    break
            if got:
                results.append((got[0], self.sim.now - started))
            self.sim.run(until=(i + 1) * GAP_S)
        return results


def run_trial(spec):
    """One (schedule, level) world; runs in a worker process."""
    world = FaultWorld(spec.params["schedule"], spec.params["level"],
                       seed=spec.seed, trace=spec.trace, profile=spec.profile)
    results = world.run()
    ok = [latency for r, latency in results if r.success]
    metrics = {
        "completion": len(ok) / len(results) if results else 0.0,
        "p50_s": float(np.percentile(ok, 50)) if ok else float("nan"),
        "p95_s": float(np.percentile(ok, 95)) if ok else float("nan"),
        "rebinds": float(np.mean([r.rebinds for r, _ in results])),
        "faults": world.monitor.counters().get("faults.injected", 0.0),
    }
    return TrialResult(monitor=world.monitor, metrics=metrics,
                       sim_time_s=world.sim.now,
                       trace=world.tracer, profile=world.profiler)


def run_cell(schedule: str, level: str, seed: int = SEED):
    from repro.parallel import TrialSpec

    return run_trial(TrialSpec(index=0, seed=seed,
                               params={"schedule": schedule, "level": level})).metrics


def run_sweep(workers: int = 1):
    specs = cell_specs(
        [{"schedule": schedule, "level": level}
         for schedule in SCHEDULES for level in LEVELS],
        seed=SEED, trace=True, profile=True,
    )
    sweep = run_trials(run_trial, specs, workers=workers)
    rows = {
        (o.spec.params["schedule"], o.spec.params["level"]): o.metrics
        for o in sweep.outcomes
    }
    return rows, sweep


def test_e13_fault_tolerance(benchmark, table, once, record, workers):
    rows, sweep = once(benchmark, lambda: run_sweep(workers))
    out = []
    for schedule in SCHEDULES:
        for level in LEVELS:
            s = rows[(schedule, level)]
            out.append([schedule, level, s["completion"], s["p50_s"],
                        s["p95_s"], s["rebinds"], s["faults"]])
    table(
        f"E13: composition completion under scripted faults ({N_COMPOSITIONS} runs/cell)",
        ["schedule", "resilience", "completion", "p50 (s)", "p95 (s)",
         "rebinds", "faults"],
        out,
        fmt="{:>13}",
    )

    for schedule in SCHEDULES:
        none, retries, full = (rows[(schedule, lv)]["completion"] for lv in LEVELS)
        # acceptance: resilience-on strictly dominates resilience-off
        assert full > none, f"{schedule}: full ({full}) must beat none ({none})"
        assert retries >= none, f"{schedule}: retries must not hurt"
        # the faults actually fired
        assert rows[(schedule, "none")]["faults"] > 0

    # retries visibly do work under faults
    assert any(rows[(s, "retries")]["rebinds"] > 0 for s in SCHEDULES)

    # determinism: replaying one cell reproduces the row exactly
    again = run_cell("crash-storm", "full")
    assert again == rows[("crash-storm", "full")]

    # persist the headline metrics into the bench trajectory
    for schedule in SCHEDULES:
        for level in LEVELS:
            record("E13", f"completion[{schedule}/{level}]",
                   rows[(schedule, level)]["completion"], direction="higher",
                   seed=SEED, compositions=N_COMPOSITIONS)
        record("E13", f"p95_s[{schedule}/full]",
               rows[(schedule, "full")]["p95_s"], unit="s", direction="lower",
               seed=SEED, compositions=N_COMPOSITIONS)
    # cost ledger over the merged trace, folded per composition: the
    # deterministic latency/status accounting of every pipeline run
    ledger = QueryCostLedger.from_trace(
        Trace(map(record_from_dict, sweep.trace)),
        root_name="composition.execute")
    summary = ledger.summary()
    assert summary["queries"] > 0
    for name in ("queries", "succeeded", "latency_p95_s"):
        record("E13", f"ledger_{name}", float(summary[name]),
               direction="either", seed=SEED, compositions=N_COMPOSITIONS)

    # wall-clock headline (record-only, machine-noisy): keyed by worker
    # count so the zero-tolerance determinism gate never compares it
    sim_s = sum(o.result.sim_time_s for o in sweep.outcomes if o.result)
    record("E13", "wall_clock_per_sim_second", sweep.trial_wall_s / sim_s,
           unit="s/s", direction="either", workers=sweep.workers)
    assert sweep.profile is not None and sweep.profile["events"] > 0
    if sweep.workers > 1:
        record("E13", "parallel_speedup", sweep.speedup, unit="x",
               direction="higher", workers=sweep.workers)


def _watched_world(schedule: str, level: str):
    """A FaultWorld with the SLO engine attached to its sim kernel."""
    from repro.observability.slo import SLO, Signal, SLOEvaluator, breaker_slo

    world = FaultWorld(schedule, level)
    slos = [
        SLO("composition.failures",
            "no composite execution fails inside the window",
            Signal("delta", "composition.failed"),
            objective=0.0, comparison="<=", window_s=120.0, severity="page"),
        breaker_slo(threshold=0.34, window_s=60.0),
    ]
    evaluator = SLOEvaluator(world.sim, world.monitor, slos, interval_s=15.0)
    n_hosts = len(world.providers)
    boards = world.breakers
    evaluator.probe(
        "resilience.breaker_open_fraction",
        lambda: len(boards.blocked_providers()) / n_hosts if boards else 0.0)
    evaluator.start(HORIZON_S)
    return world, evaluator


def run_slo_sweep():
    cells = {}
    for level in ("none", "full"):
        world, evaluator = _watched_world("crash-storm", level)
        world.run()
        evaluator.tick()
        st = evaluator.status["composition.failures"]
        cells[level] = {
            "verdict": evaluator.health().verdict,
            "fired": st.fired,
            "resolved": st.resolved,
            "compliance": st.compliance,
            "timeline": [(ev.time_s, ev.slo, ev.phase) for ev in evaluator.timeline],
        }
    return cells


def test_e13_slo_verdict(benchmark, table, once):
    """The SLO engine watching E13: failures alert without resilience,
    and the full stack's compliance dominates, deterministically."""
    cells = once(benchmark, run_slo_sweep)
    table(
        "E13 (SLO view): composition.failures alerting under crash-storm",
        ["resilience", "verdict", "fired", "resolved", "compliance"],
        [[level, c["verdict"], c["fired"], c["resolved"],
          f"{c['compliance']:.3f}"] for level, c in cells.items()],
        fmt="{:>12}",
    )
    # without resilience, failures breach the objective at least once
    assert cells["none"]["fired"] >= 1
    assert cells["none"]["timeline"]  # the timeline is non-trivial
    # the full stack never does worse than no resilience at all
    assert cells["full"]["compliance"] >= cells["none"]["compliance"]

    # the alert timeline is a pure function of the seed
    world, evaluator = _watched_world("crash-storm", "none")
    world.run()
    evaluator.tick()
    replay = [(ev.time_s, ev.slo, ev.phase) for ev in evaluator.timeline]
    assert replay == cells["none"]["timeline"]
