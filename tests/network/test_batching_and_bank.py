"""Batched broadcast delivery and the array-backed battery bank.

Both are pure mechanics changes: one fan-out event instead of an event
per receiver, and numpy arrays instead of per-node Battery objects.  The
tests here pin the equivalence -- delivery logs, energy, RNG stream and
battery state must match the historical scalar forms exactly.
"""

import dataclasses

import numpy as np
import pytest

from repro.network import (
    Battery,
    BatteryBank,
    Message,
    RadioModel,
    Topology,
    WirelessNetwork,
)
from repro.network.network import _receiver_copy
from repro.simkernel import Monitor, RandomStreams, Simulator


def deliver_later(net, dst, message, delay):
    """The pre-batching delivery: one scheduled event per receiver."""
    def deliver():
        node = net.nodes[dst]
        if net.topology.is_alive(dst) and node.receive is not None:
            node.receive(message)

    net.sim.schedule(delay, deliver, label=f"bcast:{message.msg_id}")


def build_flood_net(seed, *, legacy=False):
    """A lossy 50-node network where every receiver rebroadcasts once."""
    streams = RandomStreams(seed)
    pos = streams.get("pos").random((50, 2)) * 45
    topo = Topology(pos, 14.0)
    sim = Simulator()
    radio = RadioModel(bandwidth_bps=250_000.0, latency_s=0.01,
                       loss_prob=0.2, range_m=14.0)
    net = WirelessNetwork(sim, topo, radio,
                          batteries=[Battery(1.0) for _ in range(50)],
                          rng=streams.get("loss"), monitor=Monitor())
    if legacy:
        def fan_out_legacy(targets, snapshot, delay):
            for dst in targets:
                deliver_later(net, dst, _receiver_copy(snapshot), delay)

        net._fan_out_later = fan_out_legacy
    log = []
    seen = [set() for _ in range(50)]

    def attach(i):
        def recv(msg):
            log.append((sim.now, i, msg.msg_id, tuple(msg.hops)))
            if msg.msg_id not in seen[i]:
                seen[i].add(msg.msg_id)
                net.broadcast_local(i, _receiver_copy(msg))

        net.nodes[i].receive = recv

    for i in range(50):
        attach(i)
    return sim, net, log, seen


class TestBroadcastBatching:
    @pytest.mark.parametrize("seed", range(3))
    def test_flood_bit_identical_to_per_receiver_events(self, seed):
        """Chained lossy rebroadcasts deliver the same messages at the
        same times with the same energy, batched or not."""
        results = {}
        for legacy in (False, True):
            sim, net, log, seen = build_flood_net(seed, legacy=legacy)
            msg = Message(msg_id="m0", src=0, dst=None, size_bits=512.0)
            seen[0].add("m0")
            net.broadcast_local(0, msg)
            sim.run(until=10.0)
            results[legacy] = (
                log,
                net.monitor.counter("net.energy_j").value,
                [net.nodes[i].battery.remaining for i in range(50)],
            )
        assert results[False] == results[True]

    def test_batched_uses_one_event_per_broadcast(self):
        sim, net, log, seen = build_flood_net(1)
        seen[0].add("m0")
        net.broadcast_local(0, Message(msg_id="m0", src=0, dst=None,
                                       size_bits=512.0))
        sim.run(until=10.0)
        # every broadcast with >= 1 survivor schedules exactly one event
        broadcasts = sum(1 for s in seen if s)
        assert sim.events_executed <= broadcasts
        assert len(log) > sim.events_executed  # fan-out amortizes deliveries

    def test_receivers_get_independent_copies(self):
        """Mutating one receiver's message must not leak to the others."""
        rng = np.random.default_rng(0)
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        topo = Topology(pos, 5.0)
        sim = Simulator()
        net = WirelessNetwork(sim, topo,
                              RadioModel(bandwidth_bps=1e6, latency_s=0.01,
                                         range_m=5.0),
                              rng=rng)
        got = {}

        def recv(i):
            def _recv(msg):
                msg.hops.append(99)
                msg.payload["touched_by"] = i
                got[i] = msg

            return _recv

        net.nodes[1].receive = recv(1)
        net.nodes[2].receive = recv(2)
        delivered = net.broadcast_local(
            0, Message(msg_id="b", src=0, dst=None, size_bits=64.0,
                       payload={"v": 1}))
        assert delivered == [1, 2]
        sim.run()
        assert got[1].payload["touched_by"] == 1
        assert got[2].payload["touched_by"] == 2
        assert got[1].hops == [99]
        assert got[2].hops == [99]

    def test_snapshot_taken_at_broadcast_time(self):
        """Sender-side mutation after broadcast_local returns must not be
        visible to receivers (radios decoded the bytes already on air)."""
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        topo = Topology(pos, 5.0)
        sim = Simulator()
        net = WirelessNetwork(sim, topo,
                              RadioModel(bandwidth_bps=1e6, latency_s=0.01,
                                         range_m=5.0),
                              rng=np.random.default_rng(0))
        got = []
        net.nodes[1].receive = got.append
        msg = Message(msg_id="b", src=0, dst=None, size_bits=64.0,
                      payload={"v": "original"})
        net.broadcast_local(0, msg)
        msg.payload["v"] = "mutated-after-send"
        msg.hops.append(7)
        sim.run()
        assert got[0].payload["v"] == "original"
        assert got[0].hops == []

    def test_dead_receiver_at_fire_time_skipped(self):
        """Liveness is re-checked per receiver when the fan-out fires."""
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        topo = Topology(pos, 5.0)
        sim = Simulator()
        net = WirelessNetwork(sim, topo,
                              RadioModel(bandwidth_bps=1e6, latency_s=0.01,
                                         range_m=5.0),
                              rng=np.random.default_rng(0))
        got = []
        net.nodes[1].receive = lambda m: got.append(1)
        net.nodes[2].receive = lambda m: got.append(2)
        delivered = net.broadcast_local(
            0, Message(msg_id="b", src=0, dst=None, size_bits=64.0))
        assert delivered == [1, 2]
        sim.schedule_at(0.0, lambda: topo.kill(1))  # dies before delivery
        sim.run()
        assert got == [2]

    def test_receiver_copy_keeps_every_field(self):
        """The copy is a ``Message`` equal to the original field by field,
        with its own ``hops`` list and payload object."""
        msg = Message(src=3, dst=None, size_bits=96.0, kind="alarm",
                      payload={"v": [1, 2]}, hops=[3, 5], msg_id="k")
        copy = _receiver_copy(msg)
        assert type(copy) is Message
        for field in dataclasses.fields(Message):
            assert getattr(copy, field.name) == getattr(msg, field.name), field.name
        assert copy.hops is not msg.hops
        assert copy.payload is not msg.payload
        assert _receiver_copy(Message(0, None, 8.0)).payload is None


class TestBatteryBank:
    def test_view_draw_bit_identical_to_battery(self):
        rng = np.random.default_rng(3)
        caps = [1e-3, 5e-4, float("inf"), 0.0, 2e-3]
        singles = [Battery(c) for c in caps]
        bank = BatteryBank(caps)
        views = bank.batteries()
        for _ in range(3000):
            i = int(rng.integers(0, len(caps)))
            j = float(rng.uniform(0, 3e-7))
            assert singles[i].draw(j) == views[i].draw(j)
        for s, v in zip(singles, views):
            assert s.remaining == v.remaining
            assert s.consumed == v.consumed
            assert s.draws == v.draws
            assert s.depleted == v.depleted
            assert s.fraction_remaining == v.fraction_remaining

    def test_fleet_accounting(self):
        bank = BatteryBank.uniform(100, 2e-4)
        for i in range(40):
            bank.battery(i).draw(1e-4)
        for i in range(10):
            bank.battery(i).draw(2e-4)  # overdraw: deplete 10 cells
        assert bank.depleted_count == 10
        assert int(bank.alive_mask.sum()) == 90
        assert bank.total_consumed == pytest.approx(40 * 1e-4 + 10 * 1e-4)
        frac = bank.fraction_remaining()
        assert frac.shape == (100,)
        assert np.all(frac[50:] == 1.0)
        assert np.all(frac[:10] == 0.0)

    def test_views_power_a_network(self):
        """Bank views drop in wherever Battery is expected."""
        rng = np.random.default_rng(0)
        pos = rng.random((8, 2)) * 10
        topo = Topology(pos, 15.0)
        sim = Simulator()
        bank = BatteryBank.uniform(8, 1.0)
        net = WirelessNetwork(sim, topo,
                              RadioModel(bandwidth_bps=1e6, latency_s=0.01,
                                         range_m=15.0),
                              batteries=bank.batteries(), rng=rng)
        net.send(Message(src=0, dst=7, size_bits=500.0))
        sim.run()
        assert bank.total_consumed > 0.0
        assert bank.total_consumed == pytest.approx(
            net.monitor.counter("net.energy_j").value, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-negative"):
            BatteryBank([1.0, -0.5])
        with pytest.raises(ValueError, match="1-D"):
            BatteryBank(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="negative energy"):
            BatteryBank.uniform(2).battery(0).draw(-1.0)
