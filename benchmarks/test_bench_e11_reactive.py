"""E11 -- reactive vs proactive composition over wireless hosts.

"We might want to pro-actively compute some generic information about
services required to execute a query which is requested with a high
frequency.  The other approach is to re-actively integrate and execute
services..."  (The paper's own prototype [5] was reactive, over
notebook/PocketPC hardware on Bluetooth/802.11.)

Protocol: providers live on wireless nodes behind NetworkDeputies; the
broker, manager and composers sit on the base station.  Reactive
composition pays one wireless broker round-trip per task at request
time; proactive composition did that discovery earlier.  We measure
request-to-result latency over repeated requests, static hosts vs mobile
hosts (random waypoint).  Expected shape: proactive beats reactive by
roughly the discovery round-trips; mobility hurts both but compositions
still complete via retry/rebind.
"""

import numpy as np

from repro.agents import AgentPlatform, NetworkDeputy
from repro.composition import (
    Binder,
    CompositionManager,
    HTNPlanner,
    ProactiveComposer,
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
from repro.network import RadioEnergyModel, RadioModel, RandomWaypoint, Topology, WirelessNetwork
from repro.network.mobility import grid_positions
from repro.simkernel import RandomStreams, Simulator

N_REQUESTS = 12
AREA = 50.0
N_NODES = 16  # provider hosts; base station is node 16


class WirelessWorld:
    def __init__(self, mobile: bool, seed: int = 0):
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        positions = np.vstack([grid_positions(N_NODES, AREA), [[AREA / 2, -3.0]]])
        self.topology = Topology(positions, range_m=22.0)
        radio = RadioModel(bandwidth_bps=1e6, latency_s=0.02, loss_prob=0.01, range_m=22.0)
        self.network = WirelessNetwork(
            self.sim, self.topology, radio, RadioEnergyModel(),
            rng=self.streams.get("loss"),
        )
        self.base = N_NODES
        self.platform = AgentPlatform(self.sim)
        self.registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
        # broker and manager live on the base station; the composer runs
        # on a handheld at the far corner of the site -- every discovery
        # round trip and every invocation crosses the wireless network
        self.broker = BrokerAgent("broker", self.registry)
        self.platform.register(
            self.broker, NetworkDeputy(self.broker, self.network, host_node=self.base)
        )
        self.manager = CompositionManager(
            "mgr", self.sim, Binder(self.registry), mode="centralized",
            timeout_s=20.0, max_retries=2,
        )
        self.platform.register(
            self.manager, NetworkDeputy(self.manager, self.network, host_node=self.base)
        )
        self.composer_host = N_NODES - 1  # static far-corner node
        self.planner = HTNPlanner(build_pervasive_domain())

        spec = [("DecisionTreeService", 3), ("FourierSpectrumService", 3),
                ("EnsembleCombinerService", 2)]
        host_rng = self.streams.get("hosts")
        host = 0
        for category, count in spec:
            for i in range(count):
                name = f"{category.lower()}-{i}"
                desc = ServiceDescription(name=f"svc-{name}", category=category,
                                          host_node=host, ops=1e6)
                agent = ServiceProviderAgent(name, desc, self.sim)
                deputy = NetworkDeputy(agent, self.network, host_node=host,
                                       buffer_when_down=True, retry_s=1.0)
                self.platform.register(agent, deputy)
                self.registry.advertise(desc)
                host += 1

        if mobile:
            RandomWaypoint(
                self.topology, mobile_nodes=list(range(8)),
                area_m=AREA, rng=self.streams.get("mobility"),
                speed_min=1.0, speed_max=4.0, pause_s=2.0,
            ).start(self.sim)

    def run_requests(self, composer, precompute: bool):
        if precompute:
            composer.precompute("analyze-stream", {"n_partitions": 2})
            self.sim.run(until=self.sim.now + 30.0)
        latencies, failures = [], 0
        for _ in range(N_REQUESTS):
            got = []
            start = self.sim.now
            composer.compose("analyze-stream", got.append, params={"n_partitions": 2})
            # compositions always resolve (discovery + manager timeouts);
            # the deadline guards against pathological event storms
            deadline = self.sim.now + 300.0
            while not got and self.sim.now < deadline:
                if not self.sim.step():
                    break
            if got and got[0].success:
                latencies.append(self.sim.now - start)
            else:
                failures += 1
            self.sim.run(until=self.sim.now + 15.0)
        return latencies, failures


def run_config(mobile: bool, proactive: bool, seed=47):
    world = WirelessWorld(mobile, seed=seed)
    if proactive:
        composer = ProactiveComposer("pro", world.planner, world.manager, "broker")
    else:
        composer = ReactiveComposer("re", world.planner, world.manager, "broker")
    world.platform.register(
        composer, NetworkDeputy(composer, world.network, host_node=world.composer_host)
    )
    latencies, failures = world.run_requests(composer, precompute=proactive)
    return {
        "mean_latency": float(np.mean(latencies)) if latencies else float("nan"),
        "p95_latency": float(np.percentile(latencies, 95)) if latencies else float("nan"),
        "success": (N_REQUESTS - failures) / N_REQUESTS,
    }


def run_sweep():
    return {
        (mob, mode): run_config(mob, mode == "proactive")
        for mob in (False, True)
        for mode in ("reactive", "proactive")
    }


def test_e11_reactive_vs_proactive(benchmark, table, once):
    stats = once(benchmark, run_sweep)
    rows = []
    for (mobile, mode), s in sorted(stats.items()):
        rows.append(["mobile" if mobile else "static", mode,
                     s["mean_latency"], s["p95_latency"], s["success"]])
    table(
        f"E11: composition latency over {N_REQUESTS} requests (wireless hosts)",
        ["hosts", "mode", "mean lat (s)", "p95 lat (s)", "success"],
        rows,
        fmt="{:>14}",
    )

    static_re = stats[(False, "reactive")]
    static_pro = stats[(False, "proactive")]
    mobile_re = stats[(True, "reactive")]
    mobile_pro = stats[(True, "proactive")]
    # proactive serves requests faster (discovery already paid)
    assert static_pro["mean_latency"] < static_re["mean_latency"]
    # on static hosts everything completes
    assert static_re["success"] == 1.0 and static_pro["success"] == 1.0
    # mobility may cost retries but compositions still mostly complete
    assert mobile_re["success"] >= 0.75
    assert mobile_pro["success"] >= 0.75
