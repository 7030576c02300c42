"""Tests for the scripted fault-injection layer."""

import math

import numpy as np
import pytest

from repro.faults import (
    FaultDomain,
    FaultInjector,
    LinkDegradation,
    NodeCrash,
    Partition,
    RegionBlackout,
    UplinkOutage,
    crash_schedule,
    flapping_schedule,
)
from repro.network.topology import Topology
from repro.simkernel import Monitor, RandomStreams, Simulator


def grid_topology(n_side=3, spacing=10.0, range_m=12.0):
    xs, ys = np.meshgrid(np.arange(n_side), np.arange(n_side))
    pos = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(float) * spacing
    return Topology(pos, range_m=range_m)


@pytest.fixture
def world():
    sim = Simulator()
    topo = grid_topology()
    domain = FaultDomain(sim=sim, monitor=Monitor(), topology=topo)
    return sim, topo, domain


class TestNodeCrash:
    def test_kill_and_revive(self, world):
        sim, topo, domain = world
        injector = FaultInjector(domain)
        injector.schedule(NodeCrash(4, at_s=1.0, duration_s=2.0))
        sim.run(until=1.5)
        assert not topo.is_alive(4)
        sim.run(until=4.0)
        assert topo.is_alive(4)
        assert [e.phase for e in injector.timeline] == ["inject", "recover"]

    def test_does_not_resurrect_independently_dead_node(self, world):
        sim, topo, domain = world
        topo.kill(4)
        injector = FaultInjector(domain)
        injector.schedule(NodeCrash(4, at_s=1.0, duration_s=1.0))
        sim.run(until=5.0)
        # the crash found node 4 already dead, so recovery must not revive it
        assert not topo.is_alive(4)

    def test_permanent_crash_never_recovers(self, world):
        sim, topo, domain = world
        injector = FaultInjector(domain)
        injector.schedule(NodeCrash(0, at_s=0.5))
        sim.run(until=100.0)
        assert not topo.is_alive(0)
        assert injector.active == 1

    def test_node_change_hook_fires(self, world):
        sim, topo, domain = world
        seen = []
        domain.on_node_change = lambda node, up: seen.append((sim.now, node, up))
        FaultInjector(domain).schedule(NodeCrash(2, at_s=1.0, duration_s=1.0))
        sim.run(until=3.0)
        assert seen == [(1.0, 2, False), (2.0, 2, True)]

    def test_negative_node_rejected(self):
        # a negative id would index from the end and crash another node
        with pytest.raises(ValueError, match="node must be >= 0"):
            NodeCrash(-1, at_s=1.0)


class TestRegionBlackout:
    def test_kills_exactly_the_disc(self, world):
        sim, topo, domain = world
        # disc around the origin corner: nodes 0 (0,0), 1 (10,0), 3 (0,10)
        fault = RegionBlackout(center=(0.0, 0.0), radius_m=11.0, at_s=1.0, duration_s=5.0)
        FaultInjector(domain).schedule(fault)
        sim.run(until=2.0)
        assert sorted(fault.victims) == [0, 1, 3]
        assert all(not topo.is_alive(v) for v in (0, 1, 3))
        assert topo.is_alive(4)
        sim.run(until=10.0)
        assert all(topo.is_alive(v) for v in (0, 1, 3))

    def test_spares_already_dead_nodes_on_recovery(self, world):
        sim, topo, domain = world
        topo.kill(0)
        fault = RegionBlackout(center=(0.0, 0.0), radius_m=11.0, at_s=1.0, duration_s=2.0)
        FaultInjector(domain).schedule(fault)
        sim.run(until=5.0)
        assert not topo.is_alive(0)  # was dead before the blackout
        assert topo.is_alive(1) and topo.is_alive(3)


class TestLinkDegradation:
    def test_swaps_and_restores_radio(self):
        from repro.sensors.deployment import SensorDeployment

        sim = Simulator()
        dep = SensorDeployment(9, 20.0, sim=sim, streams=RandomStreams(7))
        domain = FaultDomain(sim=sim, monitor=dep.monitor, topology=dep.topology,
                             network=dep.network, radio_holders=(dep,))
        original = dep.radio
        fault = LinkDegradation(at_s=1.0, duration_s=2.0, latency_multiplier=4.0,
                                bandwidth_multiplier=0.25, loss_floor=0.2)
        FaultInjector(domain).schedule(fault)
        sim.run(until=1.5)
        assert dep.radio.latency_s == pytest.approx(original.latency_s * 4.0)
        assert dep.radio.bandwidth_bps == pytest.approx(original.bandwidth_bps * 0.25)
        assert dep.radio.loss_prob >= 0.2
        assert dep.network.radio == dep.radio
        sim.run(until=4.0)
        assert dep.radio is original
        assert dep.network.radio is original

    def test_loss_clamped_below_one(self, world):
        sim, topo, domain = world

        class Holder:
            def __init__(self):
                from repro.network.radio import RadioModel
                self.radio = RadioModel(loss_prob=0.5)

        holder = Holder()
        domain.radio_holders = (holder,)
        FaultInjector(domain).schedule(LinkDegradation(at_s=0.5, loss_multiplier=100.0))
        sim.run(until=1.0)
        assert holder.radio.loss_prob < 1.0


class TestUplinkOutageFault:
    def test_drives_uplink_windows(self):
        from repro.grid.uplink import Uplink

        sim = Simulator()
        uplink = Uplink(sim)
        domain = FaultDomain(sim=sim, monitor=Monitor(), uplink=uplink)
        injector = FaultInjector(domain)
        injector.schedule(UplinkOutage(at_s=1.0, duration_s=3.0))
        sim.run(until=2.0)
        assert not uplink.online
        assert uplink.estimate_completion(1e6) == math.inf
        sim.run(until=5.0)
        assert uplink.online
        assert uplink.outages == 1

    def test_missing_subsystem_is_an_error(self, world):
        sim, topo, domain = world  # no uplink in this domain
        FaultInjector(domain).schedule(UplinkOutage(at_s=0.5))
        with pytest.raises(ValueError, match="uplink"):
            sim.run(until=1.0)


class TestPartition:
    def test_severs_and_restores_cross_links(self, world):
        sim, topo, domain = world
        left, right = [0, 3, 6], [1, 2, 4, 5, 7, 8]
        assert topo.shortest_path(0, 2) is not None
        FaultInjector(domain).schedule(Partition(left, right, at_s=1.0, duration_s=2.0))
        sim.run(until=1.5)
        assert topo.shortest_path(0, 2) is None
        assert topo.shortest_path(0, 6) is not None  # intra-group links stay
        assert topo.shortest_path(1, 8) is not None
        sim.run(until=4.0)
        assert topo.shortest_path(0, 2) is not None

    def test_overlapping_partitions_stack(self, world):
        sim, topo, domain = world
        topo.block_links([0], [1])
        topo.block_links([0], [1, 2])
        topo.unblock_links([0], [1])
        assert not topo.has_edge(0, 1)  # still blocked once
        topo.unblock_links([0], [1, 2])
        assert topo.has_edge(0, 1)

    def test_groups_must_be_disjoint(self):
        with pytest.raises(ValueError):
            Partition([0, 1], [1, 2], at_s=0.0)


class TestInjector:
    def test_monitor_counters(self, world):
        sim, topo, domain = world
        injector = FaultInjector(domain)
        injector.schedule_all([
            NodeCrash(0, at_s=1.0, duration_s=1.0),
            NodeCrash(1, at_s=2.0),
        ])
        sim.run(until=10.0)
        counters = domain.monitor.counters()
        assert counters["faults.injected"] == 2
        assert counters["faults.recovered"] == 1
        assert counters["faults.node-crash"] == 2

    def test_past_times_fire_immediately(self, world):
        sim, topo, domain = world
        sim.schedule(5.0, lambda: None)
        sim.run(until=5.0)
        injector = FaultInjector(domain)
        injector.schedule(NodeCrash(0, at_s=1.0))  # already in the past
        sim.schedule(0.1, lambda: None)
        sim.run(until=6.0)
        assert not topo.is_alive(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            NodeCrash(0, at_s=-1.0)
        with pytest.raises(ValueError):
            NodeCrash(0, at_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError):
            NodeCrash(0, at_s=math.inf)


class TestEndToEndOutage:
    """Acceptance: an UplinkOutage mid-run causes zero unhandled
    exceptions -- queries complete locally or fail with a counted reason."""

    def make_runtime(self):
        from repro.core import PervasiveGridRuntime

        return PervasiveGridRuntime(n_sensors=25, area_m=40.0, seed=6,
                                    grid_resolution=24, noise_std=0.0)

    def test_outage_mid_continuous_query_is_handled(self):
        rt = self.make_runtime()
        injector = rt.fault_injector()
        # outage window covers several epochs of the continuous query
        injector.schedule(UplinkOutage(at_s=20.0, duration_s=60.0))
        outcomes = []
        rt.submit("SELECT DISTRIBUTION(value) FROM sensors COST accuracy 0.05 "
                  "EPOCH DURATION 10 FOR 120", lambda outs: outcomes.extend(outs))
        rt.sim.run(until=500.0)  # must not raise
        assert len(outcomes) == 12
        # every epoch either succeeded (grid before/after, local during)
        # or failed with a recorded reason
        for out in outcomes:
            assert out.success or out.error
        assert any(out.success and out.model != "grid" for out in outcomes), \
            "outage epochs should fall back to local models"
        assert any(out.success and out.model == "grid" for out in outcomes), \
            "pre/post-outage epochs should use the grid"
        assert rt.grid.uplink.outages == 1

    def test_outage_during_offload_counted_in_monitor(self):
        """Force the race: the uplink dies after the decision (grid) was
        made but before the offload starts -- the failure must be counted,
        not raised."""
        from repro.core import StaticPolicy

        from repro.core import PervasiveGridRuntime

        rt = PervasiveGridRuntime(n_sensors=25, area_m=40.0, seed=6,
                                  grid_resolution=24, noise_std=0.0,
                                  policy=StaticPolicy("grid"))
        injector = rt.fault_injector()
        outcomes = []
        rt.submit("SELECT DISTRIBUTION(value) FROM sensors",
                  lambda outs: outcomes.extend(outs))
        # the wireless collection takes a moment; kill the uplink first
        injector.schedule(UplinkOutage(at_s=1e-6, duration_s=1e6))
        rt.sim.run(until=1e5)
        (out,) = outcomes
        assert not out.success
        assert out.error == "uplink-offline"
        assert rt.deployment.monitor.counters()["queries.failed.uplink-offline"] == 1


class TestDeterminism:
    def test_crash_schedule_reproducible_from_named_stream(self):
        def build(seed):
            rng = RandomStreams(seed).get("fault-schedule")
            return crash_schedule(rng, nodes=range(9), horizon_s=500.0,
                                  rate_per_s=0.05, mean_downtime_s=10.0)

        a, b = build(123), build(123)
        assert len(a) == len(b) > 0
        assert [(f.node, f.at_s, f.duration_s) for f in a] == [
            (f.node, f.at_s, f.duration_s) for f in b
        ]
        c = build(124)
        assert [(f.node, f.at_s) for f in a] != [(f.node, f.at_s) for f in c]

    def test_identical_timelines_across_runs(self):
        def run(seed):
            sim = Simulator()
            topo = grid_topology()
            domain = FaultDomain(sim=sim, monitor=Monitor(), topology=topo)
            injector = FaultInjector(domain)
            rng = RandomStreams(seed).get("faults")
            injector.schedule_all(crash_schedule(rng, nodes=range(9), horizon_s=300.0,
                                                 rate_per_s=0.1, mean_downtime_s=5.0))
            sim.run(until=300.0)
            return [(e.time, e.kind, e.detail, e.phase) for e in injector.timeline]

        assert run(42) == run(42)

    def test_flapping_schedule_is_square_wave(self):
        faults = flapping_schedule(node=3, horizon_s=100.0, up_s=10.0, down_s=5.0)
        assert [f.at_s for f in faults] == pytest.approx([10.0, 25.0, 40.0, 55.0, 70.0, 85.0])
        assert all(f.duration_s == 5.0 and f.node == 3 for f in faults)
