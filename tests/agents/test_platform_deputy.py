"""Unit tests for agents, deputies and the platform."""

import numpy as np
import pytest

from repro.agents import (
    ACLMessage,
    Agent,
    AgentPlatform,
    DirectDeputy,
    NetworkDeputy,
    Performative,
)
from repro.network import RadioEnergyModel, RadioModel, Topology, WirelessNetwork
from repro.simkernel import Simulator


class EchoAgent(Agent):
    """Replies INFORM with the same content to every REQUEST."""

    def setup(self):
        self.received = []
        self.on(Performative.REQUEST, self._handle)

    def _handle(self, msg):
        self.received.append(msg)
        self.reply(msg, Performative.INFORM, msg.content)


class SinkAgent(Agent):
    def setup(self):
        self.infos = []
        self.on(Performative.INFORM, self.infos.append)


def wired_platform():
    sim = Simulator()
    platform = AgentPlatform(sim)
    return sim, platform


class TestPlatformBasics:
    def test_register_and_lookup(self):
        sim, platform = wired_platform()
        a = Agent("alice")
        platform.register(a)
        assert platform.is_registered("alice")
        assert platform.agent("alice") is a
        assert a.platform is platform

    def test_duplicate_name_rejected(self):
        sim, platform = wired_platform()
        platform.register(Agent("x"))
        with pytest.raises(ValueError):
            platform.register(Agent("x"))

    def test_unregister_calls_teardown(self):
        sim, platform = wired_platform()
        events = []

        class A(Agent):
            def teardown(self):
                events.append("teardown")

        a = A("x")
        platform.register(a)
        platform.unregister("x")
        assert events == ["teardown"]
        assert not platform.is_registered("x")
        assert a.platform is None

    def test_setup_called_on_register(self):
        sim, platform = wired_platform()
        echo = EchoAgent("e")
        platform.register(echo)
        assert echo.received == []  # setup ran and created the list

    def test_send_requires_registration(self):
        a = Agent("loner")
        with pytest.raises(RuntimeError):
            a.ask("other", Performative.REQUEST)

    def test_dispatch_to_missing_agent_counts(self):
        sim, platform = wired_platform()
        a = Agent("a")
        platform.register(a)
        a.ask("ghost", Performative.REQUEST)
        assert platform.monitor.counter("platform.undeliverable").value == 1


class TestDirectDelivery:
    def test_request_reply_roundtrip(self):
        sim, platform = wired_platform()
        echo = EchoAgent("echo")
        sink = SinkAgent("sink")
        platform.register(echo)
        platform.register(sink)
        msg = ACLMessage(Performative.REQUEST, sender="sink", receiver="echo", content="hi")
        sink.send("echo", msg)
        sim.run()
        assert [m.content for m in echo.received] == ["hi"]
        assert [m.content for m in sink.infos] == ["hi"]
        assert sink.infos[0].in_reply_to == msg.conversation_id

    def test_direct_latency(self):
        sim, platform = wired_platform()
        echo = EchoAgent("echo")
        platform.register(echo, DirectDeputy(echo, sim, latency_s=0.5))
        sender = Agent("s")
        platform.register(sender)
        sender.ask("echo", Performative.REQUEST, "x")
        sim.run()
        # request took 0.5s to arrive (reply via default 0.001 deputy)
        assert echo.received[0] is not None
        assert sim.now >= 0.5

    def test_counts(self):
        sim, platform = wired_platform()
        echo = EchoAgent("echo")
        sink = SinkAgent("sink")
        platform.register(echo)
        platform.register(sink)
        sink.ask("echo", Performative.REQUEST, 1)
        sim.run()
        assert sink.sent_count == 1
        assert echo.sent_count == 1
        assert echo.inbox_count == 1
        assert sink.inbox_count == 1

    def test_raw_handler_for_non_acl(self):
        sim, platform = wired_platform()
        got = []
        a = Agent("a")
        a.on_raw(got.append)
        platform.register(a)
        b = Agent("b")
        platform.register(b)
        b.send("a", {"soap": True}, content_type="soap")
        sim.run()
        assert got and got[0].content == {"soap": True}

    def test_unhandled_performative_ignored(self):
        sim, platform = wired_platform()
        a = Agent("a")
        platform.register(a)
        b = Agent("b")
        platform.register(b)
        b.ask("a", Performative.CFP, None)
        sim.run()
        assert a.inbox_count == 1  # delivered but no handler: no crash


def network_platform(n=5, spacing=10.0, range_m=12.0):
    sim = Simulator()
    pos = np.array([[i * spacing, 0.0] for i in range(n)])
    topo = Topology(pos, range_m=range_m)
    radio = RadioModel(bandwidth_bps=1e6, latency_s=0.01, range_m=range_m)
    net = WirelessNetwork(sim, topo, radio, RadioEnergyModel())
    platform = AgentPlatform(sim)
    return sim, topo, net, platform


class TestNetworkDeputy:
    def test_delivery_over_multihop(self):
        sim, topo, net, platform = network_platform()
        echo = EchoAgent("echo")
        platform.register(echo, NetworkDeputy(echo, net, host_node=4), host_node=4)
        sink = SinkAgent("sink")
        platform.register(sink, NetworkDeputy(sink, net, host_node=0), host_node=0)
        sink.ask("echo", Performative.REQUEST, "over-the-air")
        sim.run()
        assert [m.content for m in echo.received] == ["over-the-air"]
        assert [m.content for m in sink.infos] == ["over-the-air"]
        assert sim.now > 0.04  # 4 hops each way

    def test_drop_without_buffering(self):
        sim, topo, net, platform = network_platform()
        echo = EchoAgent("echo")
        deputy = NetworkDeputy(echo, net, host_node=4)
        platform.register(echo, deputy, host_node=4)
        sender = Agent("s")
        platform.register(sender, NetworkDeputy(sender, net, host_node=0), host_node=0)
        topo.kill(4)
        sender.ask("echo", Performative.REQUEST, "lost")
        sim.run()
        assert echo.received == []
        assert deputy.dropped_count == 1
        assert not deputy.reachable

    def test_disconnection_management_buffers_and_flushes(self):
        sim, topo, net, platform = network_platform()
        echo = EchoAgent("echo")
        deputy = NetworkDeputy(echo, net, host_node=4, buffer_when_down=True, retry_s=1.0)
        platform.register(echo, deputy, host_node=4)
        sender = Agent("s")
        platform.register(sender, NetworkDeputy(sender, net, host_node=0), host_node=0)
        topo.kill(4)
        sender.ask("echo", Performative.REQUEST, "patience")
        sim.schedule(5.0, lambda: topo.revive(4))
        sim.run()
        assert [m.content for m in echo.received] == ["patience"]
        assert deputy.buffered_count == 1
        assert deputy.dropped_count == 0

    def test_buffer_overflow_drops(self):
        sim, topo, net, platform = network_platform()
        echo = EchoAgent("echo")
        deputy = NetworkDeputy(echo, net, host_node=4, buffer_when_down=True, max_buffer=2)
        platform.register(echo, deputy, host_node=4)
        sender = Agent("s")
        platform.register(sender, NetworkDeputy(sender, net, host_node=0), host_node=0)
        topo.kill(4)
        for i in range(5):
            sender.ask("echo", Performative.REQUEST, i)
        sim.run(until=0.5)
        assert deputy.buffered_count == 2
        assert deputy.dropped_count == 3

    def test_transcoding_on_long_paths(self):
        sim, topo, net, platform = network_platform(n=6)
        echo = EchoAgent("echo")
        deputy = NetworkDeputy(echo, net, host_node=5, transcode_factor=0.5, transcode_hop_threshold=3)
        platform.register(echo, deputy, host_node=5)
        sender = Agent("s")
        platform.register(sender, NetworkDeputy(sender, net, host_node=0), host_node=0)
        sender.ask("echo", Performative.REQUEST, "shrink-me")
        sim.run()
        assert deputy.transcoded_count == 1
        assert [m.content for m in echo.received] == ["shrink-me"]

    def test_no_transcoding_on_short_paths(self):
        sim, topo, net, platform = network_platform(n=3)
        echo = EchoAgent("echo")
        deputy = NetworkDeputy(echo, net, host_node=2, transcode_factor=0.5, transcode_hop_threshold=3)
        platform.register(echo, deputy, host_node=2)
        sender = Agent("s")
        platform.register(sender, NetworkDeputy(sender, net, host_node=0), host_node=0)
        sender.ask("echo", Performative.REQUEST, "as-is")
        sim.run()
        assert deputy.transcoded_count == 0

    def test_validation(self):
        sim, topo, net, platform = network_platform()
        a = Agent("a")
        with pytest.raises(ValueError):
            NetworkDeputy(a, net, 0, retry_s=0.0)
        with pytest.raises(ValueError):
            NetworkDeputy(a, net, 0, transcode_factor=0.0)
        with pytest.raises(ValueError):
            DirectDeputy(a, sim, latency_s=-1.0)

    def test_host_node_recorded_in_platform(self):
        sim, topo, net, platform = network_platform()
        a = Agent("a")
        platform.register(a, NetworkDeputy(a, net, host_node=3))
        assert platform.host_node_of("a") == 3
        assert platform.host_node_of("missing") is None
