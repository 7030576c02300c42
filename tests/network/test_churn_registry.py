"""Churn <-> registry interaction and fault-timeline determinism."""

import numpy as np

from repro.discovery import (
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceDescription,
    build_service_ontology,
)
from repro.network.churn import ChurnProcess
from repro.network.topology import Topology
from repro.simkernel import RandomStreams, Simulator


def make_topology(n=5):
    pos = np.stack([np.arange(n, dtype=float), np.zeros(n)], axis=1)
    return Topology(pos, range_m=1.5)


def make_registry():
    return ReplicatedRegistry(SemanticMatcher(build_service_ontology()))


class TestChurnDrivesRegistry:
    def test_down_withdraws_and_up_readvertises(self):
        sim = Simulator()
        topo = make_topology()
        registry = make_registry()
        ads = {
            node: ServiceDescription(
                name=f"svc-{node}", category="DecisionTreeService",
                provider=f"agent-{node}", host_node=node,
            )
            for node in range(5)
        }
        for ad in ads.values():
            registry.advertise(ad)

        def on_change(node, up):
            if up:
                registry.advertise(ads[node])
            else:
                registry.withdraw_host(node)

        churn = ChurnProcess(sim, topo, nodes=range(5), rng=RandomStreams(5).get("churn"),
                             mean_up_s=10.0, mean_down_s=10.0, on_change=on_change)
        churn.start()

        # simulate until at least one node has gone down
        while not any(not topo.is_alive(n) for n in range(5)):
            assert sim.step(), "churn never took a node down"
        down = [n for n in range(5) if not topo.is_alive(n)]
        names = {s.name for s in registry.services()}
        for node in down:
            assert f"svc-{node}" not in names, "down host's ad must be withdrawn"

        # keep going until every down node has come back up
        while any(not topo.is_alive(n) for n in range(5)):
            assert sim.step(), "churned nodes never recovered"
        names = {s.name for s in registry.services()}
        for node in range(5):
            assert f"svc-{node}" in names, "recovered host must re-advertise"
        assert churn.transitions >= 2

    def test_same_named_stream_gives_identical_timelines(self):
        def run(seed):
            sim = Simulator()
            topo = make_topology()
            timeline = []
            churn = ChurnProcess(
                sim, topo, nodes=range(5), rng=RandomStreams(seed).get("churn"),
                mean_up_s=20.0, mean_down_s=5.0,
                on_change=lambda node, up: timeline.append((sim.now, node, up)),
            )
            churn.start()
            sim.run(until=500.0)
            return timeline

        a, b = run(99), run(99)
        assert a == b
        assert len(a) > 0
        assert run(100) != a
