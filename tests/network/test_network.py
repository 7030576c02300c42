"""Unit tests for event-driven message delivery, mobility and churn."""

import numpy as np
import pytest

from repro.simkernel import Simulator, Monitor, RandomStreams
from repro.network import (
    Battery,
    Message,
    RadioEnergyModel,
    RadioModel,
    Topology,
    WirelessNetwork,
    RandomWaypoint,
    StaticPlacement,
)
from repro.network.churn import ChurnProcess


def make_net(n=5, spacing=10.0, range_m=12.0, loss=0.0, batteries=None, seed=0):
    sim = Simulator()
    pos = np.array([[i * spacing, 0.0] for i in range(n)])
    topo = Topology(pos, range_m=range_m)
    radio = RadioModel(bandwidth_bps=1e6, latency_s=0.01, loss_prob=loss, range_m=range_m)
    net = WirelessNetwork(
        sim,
        topo,
        radio,
        RadioEnergyModel(),
        batteries=batteries,
        rng=np.random.default_rng(seed),
        monitor=Monitor(),
    )
    return sim, topo, net


class TestUnicast:
    def test_delivery_along_line(self):
        sim, topo, net = make_net()
        receipts = []
        net.send(Message(src=0, dst=4, size_bits=1000.0), receipts.append)
        sim.run()
        (r,) = receipts
        assert r.delivered
        assert r.hops == 4
        # 4 hops * (1000/1e6 + 0.01) = 4 * 0.011
        assert r.time == pytest.approx(0.044)

    def test_receive_hook_invoked(self):
        sim, topo, net = make_net()
        got = []
        net.nodes[4].receive = got.append
        msg = Message(src=0, dst=4, size_bits=100.0, payload="hello")
        net.send(msg)
        sim.run()
        assert got and got[0].payload == "hello"

    def test_energy_charged_to_batteries(self):
        batteries = [Battery(1.0) for _ in range(5)]
        sim, topo, net = make_net(batteries=batteries)
        net.send(Message(src=0, dst=4, size_bits=1000.0))
        sim.run()
        assert batteries[0].consumed > 0  # tx only
        assert batteries[4].consumed > 0  # rx only
        assert batteries[2].consumed > batteries[4].consumed  # relay pays tx+rx

    def test_receipt_energy_matches_battery_draws(self):
        batteries = [Battery(1.0) for _ in range(5)]
        sim, topo, net = make_net(batteries=batteries)
        receipts = []
        net.send(Message(src=0, dst=4, size_bits=1000.0), receipts.append)
        sim.run()
        total = sum(b.consumed for b in batteries)
        assert receipts[0].energy_j == pytest.approx(total)

    def test_no_route_drops(self):
        sim, topo, net = make_net()
        topo.kill(2)
        receipts = []
        net.send(Message(src=0, dst=4, size_bits=100.0), receipts.append)
        sim.run()
        assert not receipts[0].delivered
        assert receipts[0].reason == "no-route"

    def test_loss_eventually_drops(self):
        sim, topo, net = make_net(loss=0.9, seed=1)
        outcomes = []
        for _ in range(20):
            net.send(Message(src=0, dst=4, size_bits=100.0), outcomes.append)
        sim.run()
        assert any(not r.delivered and r.reason == "loss" for r in outcomes)

    def test_relay_death_mid_flight(self):
        """A relay that dies while the message is in the air drops it."""
        batteries = [Battery(1.0) for _ in range(5)]
        sim, topo, net = make_net(batteries=batteries)
        receipts = []
        net.send(Message(src=0, dst=4, size_bits=1000.0), receipts.append)
        # kill node 2 shortly after the message leaves node 0
        sim.schedule(0.015, lambda: topo.kill(2))
        sim.run()
        assert not receipts[0].delivered
        assert receipts[0].reason in ("dead-node", "no-route")

    def test_battery_death_kills_topology_node(self):
        batteries = [Battery(float("inf"))] * 2 + [Battery(1e-7)] + [Battery(float("inf"))] * 2
        sim, topo, net = make_net(batteries=batteries)
        net.send(Message(src=0, dst=4, size_bits=100000.0))
        sim.run()
        assert not topo.is_alive(2)
        assert net.monitor.counter("net.node_deaths").value == 1

    def test_send_requires_destination(self):
        sim, topo, net = make_net()
        with pytest.raises(ValueError):
            net.send(Message(src=0, dst=None, size_bits=10.0))

    def test_monitor_counters(self):
        sim, topo, net = make_net()
        net.send(Message(src=0, dst=4, size_bits=100.0))
        net.send(Message(src=1, dst=3, size_bits=100.0))
        sim.run()
        assert net.monitor.counter("net.sent").value == 2
        assert net.monitor.counter("net.delivered").value == 2
        assert net.monitor.counter("net.hops").value == 4 + 2

    def test_reroute_around_topology_change(self):
        """Routes are recomputed per hop, so mobility mid-flight reroutes."""
        pos = np.array([[0.0, 0.0], [10.0, 0.0], [20.0, 0.0], [10.0, 10.0]])
        sim = Simulator()
        topo = Topology(pos, range_m=15.0)
        radio = RadioModel(bandwidth_bps=1e6, latency_s=0.01, range_m=15.0)
        net = WirelessNetwork(sim, topo, radio)
        receipts = []
        net.send(Message(src=0, dst=2, size_bits=100.0), receipts.append)
        # While hop 0->1 is in flight, the destination moves out of node 1's
        # range but stays within node 3's: the remaining route becomes 1-3-2.
        sim.schedule(0.005, lambda: topo.move(2, np.array([10.0, 24.0])))
        sim.run()
        assert receipts[0].delivered
        assert receipts[0].hops == 3  # 0-1, 1-3, 3-2 instead of 0-1, 1-2


class TestBroadcast:
    def test_broadcast_reaches_neighbors(self):
        sim, topo, net = make_net()
        delivered = net.broadcast_local(2, Message(src=2, dst=None, size_bits=100.0))
        assert delivered == [1, 3]

    def test_broadcast_receive_hooks(self):
        sim, topo, net = make_net()
        got = []
        net.nodes[1].receive = lambda m: got.append(1)
        net.nodes[3].receive = lambda m: got.append(3)
        net.broadcast_local(2, Message(src=2, dst=None, size_bits=100.0))
        sim.run()
        assert sorted(got) == [1, 3]

    def test_broadcast_from_dead_node(self):
        sim, topo, net = make_net()
        topo.kill(2)
        assert net.broadcast_local(2, Message(src=2, dst=None, size_bits=10.0)) == []

    def test_broadcast_charges_one_tx(self):
        batteries = [Battery(1.0) for _ in range(5)]
        sim, topo, net = make_net(batteries=batteries)
        net.broadcast_local(2, Message(src=2, dst=None, size_bits=1000.0))
        tx = net.energy_model.tx_cost(1000.0, net.radio.range_m)
        assert batteries[2].consumed == pytest.approx(tx)


class TestMobility:
    def test_static_placement_never_moves(self):
        sim, topo, net = make_net()
        before = topo.positions.copy()
        StaticPlacement(topo).start(sim)
        sim.run(until=100.0)
        assert np.array_equal(before, topo.positions)

    def test_random_waypoint_moves_only_mobile_nodes(self):
        sim, topo, net = make_net()
        rng = RandomStreams(7).get("mobility")
        rw = RandomWaypoint(topo, mobile_nodes=[3, 4], area_m=50.0, rng=rng, pause_s=0.0)
        before = topo.positions.copy()
        rw.start(sim)
        sim.run(until=10.0)
        assert np.array_equal(before[:3], topo.positions[:3])
        assert not np.array_equal(before[3:], topo.positions[3:])
        assert rw.ticks == 10

    def test_random_waypoint_stays_in_area(self):
        sim, topo, net = make_net()
        rng = RandomStreams(7).get("mobility")
        rw = RandomWaypoint(topo, mobile_nodes=[0, 1, 2, 3, 4], area_m=40.0, rng=rng, speed_max=5.0, pause_s=0.0)
        rw.start(sim)
        sim.run(until=200.0)
        pos = topo.positions
        assert pos.min() >= -1e-9 and pos.max() <= 40.0 + 1e-9

    def test_random_waypoint_reproducible(self):
        def run():
            sim, topo, net = make_net()
            rng = RandomStreams(11).get("mobility")
            rw = RandomWaypoint(topo, mobile_nodes=[0, 1], area_m=30.0, rng=rng)
            rw.start(sim)
            sim.run(until=25.0)
            return topo.positions.copy()

        assert np.array_equal(run(), run())

    def test_random_waypoint_validation(self):
        sim, topo, net = make_net()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            RandomWaypoint(topo, [0], 10.0, rng, speed_min=0.0)
        with pytest.raises(ValueError):
            RandomWaypoint(topo, [0], 10.0, rng, speed_min=2.0, speed_max=1.0)
        with pytest.raises(ValueError):
            RandomWaypoint(topo, [0], 10.0, rng, tick_s=0.0)

    def test_pause_freezes_node(self):
        sim, topo, net = make_net()
        rng = RandomStreams(3).get("m")
        rw = RandomWaypoint(topo, mobile_nodes=[0], area_m=5.0, rng=rng, speed_min=100.0, speed_max=100.0, pause_s=1000.0)
        rw.step(1.0)  # arrives somewhere in the tiny area and starts pausing
        p1 = topo.positions[0].copy()
        rw.step(1.0)
        assert np.array_equal(p1, topo.positions[0])


class TestChurn:
    def test_churn_toggles_nodes(self):
        sim, topo, net = make_net()
        rng = RandomStreams(5).get("churn")
        events = []
        churn = ChurnProcess(
            sim, topo, nodes=[1, 2, 3], rng=rng, mean_up_s=5.0, mean_down_s=5.0,
            on_change=lambda n, up: events.append((n, up)),
        )
        churn.start()
        sim.run(until=100.0)
        assert churn.transitions > 5
        downs = [e for e in events if not e[1]]
        ups = [e for e in events if e[1]]
        assert downs and ups
        assert all(n in (1, 2, 3) for n, _ in events)

    def test_churn_availability_formula(self):
        sim, topo, net = make_net()
        churn = ChurnProcess(sim, topo, [1], np.random.default_rng(0), mean_up_s=80.0, mean_down_s=20.0)
        assert churn.availability == pytest.approx(0.8)

    def test_churn_start_twice_rejected(self):
        sim, topo, net = make_net()
        churn = ChurnProcess(sim, topo, [1], np.random.default_rng(0))
        churn.start()
        with pytest.raises(RuntimeError):
            churn.start()

    def test_churn_validation(self):
        sim, topo, net = make_net()
        with pytest.raises(ValueError):
            ChurnProcess(sim, topo, [1], np.random.default_rng(0), mean_up_s=0.0)


class TestBroadcastIsolation:
    """Each broadcast receiver must get its own copy of the message."""

    def test_receivers_cannot_corrupt_each_others_hops(self):
        sim, topo, net = make_net()
        got = {}
        for nbr in (0, 2):
            def receive(msg, nbr=nbr):
                msg.hops.append(nbr)  # receiver-side bookkeeping
                got[nbr] = msg
            net.nodes[nbr].receive = receive
        net.broadcast_local(1, Message(src=1, dst=None, size_bits=100.0))
        sim.run()
        assert got[0].hops == [0] and got[2].hops == [2]

    def test_payload_mutation_stays_local(self):
        sim, topo, net = make_net()
        original = {"count": 0}
        got = {}
        for nbr in (0, 2):
            def receive(msg, nbr=nbr):
                msg.payload["count"] += 1
                got[nbr] = msg.payload["count"]
            net.nodes[nbr].receive = receive
        net.broadcast_local(1, Message(src=1, dst=None, size_bits=100.0,
                                       payload=original))
        sim.run()
        # each receiver incremented its own copy exactly once, and the
        # sender's payload object was never touched
        assert got == {0: 1, 2: 1}
        assert original["count"] == 0

    def test_copies_keep_msg_id_for_dedup(self):
        sim, topo, net = make_net()
        got = []
        for nbr in (0, 2):
            net.nodes[nbr].receive = got.append
        msg = Message(src=1, dst=None, size_bits=100.0)
        net.broadcast_local(1, msg)
        sim.run()
        assert [m.msg_id for m in got] == [msg.msg_id, msg.msg_id]
        assert all(m is not msg for m in got)


class TestDeadSource:
    """A dead radio cannot transmit: no routing, no battery charge."""

    def test_send_from_dead_source_drops(self):
        sim, topo, net = make_net()
        topo.kill(0)
        receipts = []
        net.send(Message(src=0, dst=4, size_bits=1000.0), receipts.append)
        sim.run()
        (r,) = receipts
        assert not r.delivered
        assert r.reason == "dead-source"
        assert r.hops == 0 and r.energy_j == 0.0
        assert net.monitor.counters()["net.dropped"] == 1

    def test_dead_source_charges_no_battery(self):
        batteries = [Battery(1.0) for _ in range(5)]
        sim, topo, net = make_net(batteries=batteries)
        topo.kill(0)
        net.send(Message(src=0, dst=4, size_bits=1000.0))
        sim.run()
        assert all(b.remaining == 1.0 and b.draws == 0 for b in batteries)
        assert net.monitor.counters().get("net.energy_j", 0.0) == 0.0

    def test_live_source_still_routes(self):
        sim, topo, net = make_net()
        topo.kill(0)
        topo.revive(0)
        receipts = []
        net.send(Message(src=0, dst=4, size_bits=1000.0), receipts.append)
        sim.run()
        assert receipts[0].delivered
