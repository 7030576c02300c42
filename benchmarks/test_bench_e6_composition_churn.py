"""E6 -- composite-service availability under churn.

"Services may be coming up and going down frequently in those
environments ... The composition platform should degrade gracefully as
more and more services become unavailable."

Protocol: redundant providers for the stream-mining pipeline live on
hosts subject to exponential on/off churn.  A host going down takes its
agent off the platform and withdraws its advertisements (the registry
integration); coming back re-registers both.  A sequence of compositions
runs at each availability level, for both coordination modes.  Expected
shape: success degrades *gracefully* (no cliff at high availability),
retries/rebinds absorb much of the churn, and the centralized manager's
precise failure attribution gives it an edge at low availability.
"""

import numpy as np

from repro.agents import AgentPlatform
from repro.composition import (
    Binder,
    CompositionManager,
    HTNPlanner,
    ServiceProviderAgent,
    build_pervasive_domain,
)
from repro.discovery import ReplicatedRegistry, SemanticMatcher, ServiceDescription, build_service_ontology
from repro.network import Topology
from repro.network.churn import ChurnProcess
from repro.simkernel import RandomStreams, Simulator

N_COMPOSITIONS = 30
SEED = 17
MEAN_UP_S = 120.0
GAP_S = 60.0

PROVIDER_SPEC = [
    ("DecisionTreeService", 3),
    ("FourierSpectrumService", 3),
    ("EnsembleCombinerService", 2),
]


class ChurnWorld:
    """Platform + registry + churned provider hosts."""

    def __init__(self, mode: str, availability: float, seed: int = 0):
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        self.platform = AgentPlatform(self.sim)
        self.registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
        self.manager = CompositionManager(
            "mgr", self.sim, Binder(self.registry), mode=mode,
            timeout_s=120.0, max_retries=3,
        )
        self.platform.register(self.manager)
        self.planner = HTNPlanner(build_pervasive_domain())

        self.providers = []
        n_hosts = sum(n for _, n in PROVIDER_SPEC)
        topo = Topology(np.zeros((n_hosts, 2)), range_m=1.0)
        host = 0
        for category, count in PROVIDER_SPEC:
            for i in range(count):
                name = f"{category.lower()}-{i}"
                desc = ServiceDescription(name=f"svc-{name}", category=category,
                                          host_node=host, ops=3e9)
                agent = ServiceProviderAgent(name, desc, self.sim)
                self.platform.register(agent)
                self.registry.advertise(desc)
                self.providers.append((host, name, desc, agent))
                host += 1

        mean_down = MEAN_UP_S * (1.0 - availability) / availability
        self.churn = ChurnProcess(
            self.sim, topo, nodes=list(range(n_hosts)),
            rng=self.streams.get("churn"),
            mean_up_s=MEAN_UP_S, mean_down_s=mean_down,
            on_change=self._on_change,
        )
        self.churn.start()

    def _on_change(self, host: int, up: bool) -> None:
        host_idx, name, desc, agent = self.providers[host]
        if up:
            if not self.platform.is_registered(name):
                self.platform.register(agent)
            self.registry.advertise(desc)
        else:
            if self.platform.is_registered(name):
                self.platform.unregister(name)
            self.registry.withdraw_host(host)

    def run(self):
        results = []
        graph_params = {"n_partitions": 2}
        for i in range(N_COMPOSITIONS):
            graph = self.planner.plan("analyze-stream", graph_params)
            got = []
            self.manager.execute(graph, got.append)
            # drive until this composition resolves
            while not got:
                if not self.sim.step():
                    break
            if got:
                results.append(got[0])
            self.sim.run(until=self.sim.now + GAP_S)
        return results


def run_sweep():
    rows = {}
    for mode in ("centralized", "distributed"):
        for availability in (0.95, 0.8, 0.6, 0.4):
            world = ChurnWorld(mode, availability, seed=SEED)
            results = world.run()
            ok = [r for r in results if r.success]
            rows[(mode, availability)] = {
                "success": len(ok) / len(results) if results else 0.0,
                "mean_attempts": float(np.mean([r.attempts for r in results])),
                "mean_rebinds": float(np.mean([r.rebinds for r in results])),
                "mean_latency": float(np.mean([r.latency_s for r in ok])) if ok else float("nan"),
            }
    return rows


def test_e6_composition_under_churn(benchmark, table, once, record):
    rows = once(benchmark, run_sweep)
    out = []
    for (mode, availability), stats in sorted(rows.items()):
        out.append([mode, availability, stats["success"], stats["mean_attempts"],
                    stats["mean_rebinds"], stats["mean_latency"]])
        # ratios of counts: every composition binds through registry.search,
        # so any change in a ranking shows here
        for metric in ("success", "mean_attempts", "mean_rebinds"):
            record("E6", f"{metric}[{mode}/{availability}]", stats[metric],
                   direction="either", seed=SEED, compositions=N_COMPOSITIONS)
    table(
        f"E6: composite-service success vs host availability ({N_COMPOSITIONS} runs each)",
        ["mode", "availability", "success", "attempts", "rebinds", "latency (s)"],
        out,
        fmt="{:>14}",
    )

    for mode in ("centralized", "distributed"):
        series = [rows[(mode, a)]["success"] for a in (0.95, 0.8, 0.6, 0.4)]
        # high availability: nearly everything completes
        assert series[0] >= 0.9
        # graceful degradation: success declines but never collapses to 0
        # at 60% availability with 3x redundancy and retries
        assert series[2] > 0.4
        # monotone-ish decline (allow one inversion from retry luck)
        inversions = sum(1 for a, b in zip(series, series[1:]) if b > a + 0.1)
        assert inversions <= 1
    # retries work harder as availability drops
    assert rows[("centralized", 0.4)]["mean_attempts"] > rows[("centralized", 0.95)]["mean_attempts"]
