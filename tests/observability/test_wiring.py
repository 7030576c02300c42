"""Acceptance: traces actually connect across the live subsystems.

Two scenarios from the issue:

* a Fig-1 session whose one query's spans form a connected parent/child
  tree spanning >= 4 subsystems, with the critical-path extractor
  attributing 100% of the end-to-end simulated latency;
* an E13-style faulted run whose trace contains every injected fault and
  every resilience decision (retry, breaker transition, hedge fire) as
  attributed events.
"""

import numpy as np
import pytest

from repro.agents import AgentPlatform
from repro.composition import (
    Binder,
    CompositionManager,
    HTNPlanner,
    ReactiveComposer,
    ServiceProviderAgent,
    build_pervasive_domain,
)
from repro.core.runtime import PervasiveGridRuntime
from repro.discovery import (
    BrokerAgent,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceDescription,
    build_service_ontology,
)
from repro.faults import FaultDomain, FaultInjector, RegionBlackout
from repro.network import Topology
from repro.observability.analysis import Trace, critical_path, subsystem_rollup
from repro.observability.tracer import Tracer
from repro.queries.models import GridOffloadModel
from repro.resilience import BreakerBoard, Hedge, RetryPolicy
from repro.simkernel import Monitor, RandomStreams, Simulator


def add_stream_mining_providers(platform, registry, sim, host_of=None):
    """The analyze-stream provider set (as in the composition testbed)."""
    providers = {}
    spec = [("dt1", "DecisionTreeService"), ("dt2", "DecisionTreeService"),
            ("fft1", "FourierSpectrumService"), ("fft2", "FourierSpectrumService"),
            ("comb", "EnsembleCombinerService")]
    for i, (name, category) in enumerate(spec):
        host = host_of(i) if host_of is not None else None
        desc = ServiceDescription(name=f"svc-{name}", category=category,
                                  ops=1e6, **({"host_node": host} if host is not None else {}))
        agent = ServiceProviderAgent(name, desc, sim)
        platform.register(agent)
        registry.advertise(desc)
        providers[name] = (desc, agent)
    return providers


class TestFig1SessionTrace:
    """One session span over the Fig-1 runtime: a grid-offloaded complex
    query plus a service composition, all in one connected trace."""

    @pytest.fixture(scope="class")
    def session_run(self):
        rt = PervasiveGridRuntime(n_sensors=25, area_m=40.0, seed=3,
                                  trace=True, models=[GridOffloadModel()])
        manager = CompositionManager("mgr", rt.sim, Binder(rt.registry),
                                     mode="centralized", timeout_s=10.0,
                                     max_retries=2, monitor=rt.monitor,
                                     tracer=rt.tracer)
        rt.platform.register(manager)
        composer = ReactiveComposer("composer", HTNPlanner(build_pervasive_domain()),
                                    manager, "broker", discovery_timeout_s=10.0)
        rt.platform.register(composer)
        add_stream_mining_providers(rt.platform, rt.registry, rt.sim)

        tracer = rt.tracer
        session = tracer.span("session.fig1")
        with tracer.use(session):
            outcomes = rt.query("SELECT DISTRIBUTION(temperature) FROM sensors")
            results = []
            composer.compose("analyze-stream", results.append, {"n_partitions": 2})
            while not results and rt.sim.step():
                pass
        session.end()
        return rt, session.record, outcomes, results

    def test_scenario_succeeded(self, session_run):
        _, _, outcomes, results = session_run
        assert outcomes[0].success and outcomes[0].model == "grid"
        assert results and results[0].success

    def test_trace_is_one_connected_tree(self, session_run):
        rt, root, _, _ = session_run
        trace = Trace(rt.tracer)
        assert trace.is_connected(root)
        # every span of the run belongs to the session's trace
        assert {s.trace_id for s in trace.spans} == {root.trace_id}

    def test_spans_cover_at_least_four_subsystems(self, session_run):
        rt, root, _, _ = session_run
        subsystems = Trace(rt.tracer).subsystems(root)
        assert {"query", "net", "grid", "composition"} <= subsystems

    def test_query_journey_is_under_the_query_span(self, session_run):
        rt, _, _, _ = session_run
        trace = Trace(rt.tracer)
        (query_run,) = trace.find("query.run")
        names = {s.name for s in trace.subtree(query_run)}
        assert {"query.run", "query.execute", "net.collect",
                "grid.offload", "grid.uplink", "grid.job"} <= names
        event_names = {e.name for e in trace.events_under(query_run)}
        assert {"sensors.sample", "query.decision", "grid.dispatch"} <= event_names

    def test_critical_path_attributes_all_latency(self, session_run):
        rt, root, _, _ = session_run
        trace = Trace(rt.tracer)
        segments = critical_path(trace, root)
        attributed = sum(seg.duration_s for seg in segments)
        total = root.end_s - root.start_s
        assert attributed == pytest.approx(total, rel=0, abs=1e-12)
        assert sum(r["share"] for r in subsystem_rollup(trace, root)) == pytest.approx(1.0)

    def test_export_round_trip_preserves_the_tree(self, session_run, tmp_path):
        rt, root, _, _ = session_run
        path = tmp_path / "fig1.jsonl"
        count = rt.export_trace(path)
        assert count == len(rt.tracer.records)
        from repro.observability.export import read_jsonl

        reloaded = Trace(read_jsonl(path))
        reroot = next(s for s in reloaded.roots() if s.name == "session.fig1")
        assert reloaded.is_connected(reroot)
        assert {"query", "net", "grid", "composition"} <= reloaded.subsystems(reroot)


class E13World:
    """The E13 fault-tolerance world (full resilience level) with tracing."""

    N_COMPOSITIONS = 10
    GAP_S = 40.0
    PROVIDER_SPEC = [
        ("DecisionTreeService", 3, (0.0, 0.0)),
        ("FourierSpectrumService", 3, (100.0, 0.0)),
        ("EnsembleCombinerService", 2, (200.0, 0.0)),
    ]

    def __init__(self, seed: int = 11):
        self.sim = Simulator()
        self.tracer = Tracer(self.sim)
        self.sim.tracer = self.tracer
        self.streams = RandomStreams(seed)
        self.platform = AgentPlatform(self.sim)
        self.registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
        self.monitor = Monitor()
        self.breakers = BreakerBoard(self.sim, self.monitor, tracer=self.tracer,
                                     failure_threshold=1, recovery_timeout_s=90.0)
        self.manager = CompositionManager(
            "mgr", self.sim, Binder(self.registry), mode="centralized",
            timeout_s=8.0, max_retries=3, breakers=self.breakers,
            monitor=self.monitor, tracer=self.tracer,
        )
        self.platform.register(self.manager)
        self.broker = BrokerAgent("broker", self.registry)
        self.platform.register(self.broker)
        self.composer = ReactiveComposer(
            "composer", HTNPlanner(build_pervasive_domain()), self.manager,
            "broker", discovery_timeout_s=10.0,
            retry=RetryPolicy(max_attempts=5, base_delay_s=5.0, max_delay_s=30.0),
            hedge=Hedge(delay_s=5.0, max_hedges=1),
            rng=self.streams.get("discovery-retry"),
        )
        self.platform.register(self.composer)

        self.providers = []
        positions = []
        jitter = self.streams.get("placement")
        host = 0
        for category, count, center in self.PROVIDER_SPEC:
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
        self.injector = FaultInjector(domain, tracer=self.tracer)
        horizon = self.N_COMPOSITIONS * self.GAP_S
        centers = [center for _, _, center in self.PROVIDER_SPEC]
        self.injector.schedule_all([
            RegionBlackout(center=centers[i % len(centers)], radius_m=20.0,
                           at_s=t, duration_s=45.0)
            for i, t in enumerate(np.arange(20.0, horizon, 110.0))
        ])

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

    def run(self):
        results = []
        for i in range(self.N_COMPOSITIONS):
            if i == 4:
                # a broker outage overlapping this composition's discovery:
                # queries go unanswered, so the hedge duplicates them and
                # the discovery timeout forces a retry (broker is back by
                # the time the retry lands)
                self.platform.unregister("broker")
                self.sim.schedule(12.0, lambda: self.platform.register(self.broker))
            got = []
            self.composer.compose("analyze-stream", got.append, {"n_partitions": 2})
            while not got:
                if not self.sim.step():
                    break
            results.extend(got)
            self.sim.run(until=(i + 1) * self.GAP_S)
        return results


class TestE13Trace:
    @pytest.fixture(scope="class")
    def world(self):
        world = E13World()
        world.run()
        return world

    def test_every_injected_fault_is_a_traced_event(self, world):
        injects = [e for e in world.tracer.events() if e.name == "faults.inject"]
        recovers = [e for e in world.tracer.events() if e.name == "faults.recover"]
        timeline = world.injector.timeline
        assert len(injects) == sum(1 for f in timeline if f.phase == "inject")
        assert len(recovers) == sum(1 for f in timeline if f.phase == "recover")
        assert len(injects) > 0
        assert len(injects) == world.monitor.counter("faults.injected").value
        # the events carry the fault identity, matched 1:1 to the timeline
        assert ([(e.attrs["kind"], e.attrs["detail"]) for e in injects]
                == [(f.kind, f.detail) for f in timeline if f.phase == "inject"])

    def test_every_retry_decision_is_traced(self, world):
        retries = [e for e in world.tracer.events() if e.name == "resilience.retry"]
        assert len(retries) == world.monitor.counter("resilience.retries").increments
        assert len(retries) == world.composer.discovery_retries
        assert len(retries) > 0
        for event in retries:
            assert event.attrs["kind"] == "discovery"
            assert event.attrs["attempt"] >= 2

    def test_every_breaker_transition_is_traced(self, world):
        transitions = [e for e in world.tracer.events()
                       if e.name == "resilience.breaker_transition"]
        opens = [e for e in transitions if e.attrs["to_state"] == "open"]
        assert len(opens) == world.monitor.counter("resilience.breaker.trips").value
        assert len(opens) > 0
        total_trips = sum(b.trips for b in world.breakers._breakers.values())
        assert len(opens) == total_trips

    def test_every_hedge_fire_is_traced(self, world):
        hedges = [e for e in world.tracer.events()
                  if e.name == "resilience.hedge"]
        counter = world.monitor.counter("resilience.hedges")
        assert len(hedges) == counter.increments
        assert sum(e.attrs["duplicated"] for e in hedges) == counter.value
        assert sum(e.attrs["duplicated"] for e in hedges) == world.composer.hedged_queries

    def test_every_timeout_is_traced(self, world):
        timeouts = [e for e in world.tracer.events()
                    if e.name == "composition.timeout"]
        assert len(timeouts) == world.monitor.counter("composition.timeouts").increments

    def test_retry_decisions_attach_to_their_composition(self, world):
        """Resilience events are attributed -- parented inside the
        discovery/execution span they belong to, not free-floating."""
        trace = Trace(world.tracer)
        for event in trace.events:
            if event.name in ("resilience.retry", "resilience.hedge"):
                assert event.parent_id is not None
                parent = trace.span_by_id(event.parent_id)
                assert parent is not None
                assert parent.subsystem == "composition"


class TestBreakerTrace:
    def test_full_transition_cycle_is_traced(self):
        sim = Simulator()
        tracer = Tracer(sim)
        monitor = Monitor()
        board = BreakerBoard(sim, monitor, tracer=tracer,
                             failure_threshold=2, recovery_timeout_s=10.0)
        board.record_failure("svc")
        board.record_failure("svc")      # trips: closed -> open
        sim.schedule(12.0, lambda: None)
        sim.run()
        assert board.get("svc").state == "half-open"  # lazy open -> half-open
        board.record_failure("svc")      # failed probe: half-open -> open
        sim.schedule(12.0, lambda: None)
        sim.run()
        assert board.get("svc").allow()
        board.record_success("svc")      # probe succeeded: half-open -> closed

        transitions = [(e.attrs["from_state"], e.attrs["to_state"])
                       for e in tracer.events()
                       if e.name == "resilience.breaker_transition"]
        assert transitions == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert monitor.counter("resilience.breaker.trips").value == 2


class TestDiscoveryResilienceTrace:
    def test_broker_outage_produces_hedge_and_retry_events(self):
        """Deterministic discovery stress: the broker vanishes, the hedge
        duplicates the unanswered queries, the timeout triggers a retry,
        and the broker's return lets the retry succeed -- every decision
        lands in the trace."""
        sim = Simulator()
        tracer = Tracer(sim)
        sim.tracer = tracer
        monitor = Monitor()
        platform = AgentPlatform(sim)
        registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
        manager = CompositionManager("mgr", sim, Binder(registry),
                                     mode="centralized", timeout_s=10.0,
                                     monitor=monitor, tracer=tracer)
        platform.register(manager)
        broker = BrokerAgent("broker", registry)
        composer = ReactiveComposer(
            "composer", HTNPlanner(build_pervasive_domain()), manager, "broker",
            discovery_timeout_s=4.0,
            retry=RetryPolicy(max_attempts=3, base_delay_s=2.0, max_delay_s=8.0),
            hedge=Hedge(delay_s=1.5, max_hedges=1),
        )
        platform.register(composer)
        add_stream_mining_providers(platform, registry, sim)

        results = []
        composer.compose("analyze-stream", results.append, {"n_partitions": 2})
        # broker absent: queries drop, the hedge fires at 1.5 s, the
        # attempt times out at 4 s and schedules a retry
        sim.run(until=5.0)
        platform.register(broker)  # back online before the retry lands
        while not results and sim.step():
            pass

        assert results and results[0].success
        names = [e.name for e in tracer.events()]
        assert "resilience.hedge" in names
        assert "resilience.retry" in names
        assert monitor.counter("resilience.retries").increments == names.count("resilience.retry")
        assert monitor.counter("resilience.hedges").increments == names.count("resilience.hedge")
