"""Unit tests for registries, the broker agent and baseline protocols."""

import dataclasses

import numpy as np
import pytest

from repro.agents import ACLMessage, Agent, AgentPlatform, Performative
from repro.discovery import (
    BrokerAgent,
    DistributedBrokerNetwork,
    Preference,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceDescription,
    ServiceRequest,
    build_service_ontology,
)
from repro.discovery.protocols import BluetoothSDP, JiniLookup, SLPDirectory
from repro.simkernel import Simulator
from repro.simkernel.monitor import Monitor
from repro.workloads import ServicePopulation
from tests.discovery import oracle


def make_registry(name="r"):
    return ReplicatedRegistry(SemanticMatcher(build_service_ontology()), name=name,
                              monitor=Monitor())


def svc(name, category="PrinterService", host=None, **attrs):
    return ServiceDescription(name=name, category=category, host_node=host,
                              attributes=attrs, interfaces=(category,))


class TestServiceRegistry:
    """The registry at its default shape: one shard, one copy."""

    def test_advertise_and_search(self):
        reg = make_registry()
        reg.advertise(svc("p1"))
        results = reg.search(ServiceRequest(category="PrinterService"))
        assert [r.service.name for r in results] == ["p1"]
        assert len(reg) == 1

    def test_advertise_refresh_overwrites(self):
        reg = make_registry()
        reg.advertise(svc("p1", queue_length=5))
        reg.advertise(svc("p1", queue_length=2))
        assert len(reg) == 1
        assert reg.get("p1").attributes["queue_length"] == 2

    def test_withdraw(self):
        reg = make_registry()
        reg.advertise(svc("p1"))
        assert reg.withdraw("p1")
        assert not reg.withdraw("p1")
        assert len(reg) == 0

    def test_withdraw_host(self):
        reg = make_registry()
        reg.advertise(svc("a", host=3))
        reg.advertise(svc("b", host=3))
        reg.advertise(svc("c", host=4))
        assert reg.withdraw_host(3) == 2
        assert [s.name for s in reg.services()] == ["c"]

    def test_counts(self):
        reg = make_registry()
        reg.advertise(svc("a"))
        reg.search(ServiceRequest(category="PrinterService"))
        summary = reg.monitor.summary()
        assert summary["disc.advertise"] == 1
        assert summary["disc.search"] == 1

    def test_withdraw_count(self):
        reg = make_registry()
        reg.advertise(svc("a", host=1))
        reg.advertise(svc("b", host=1))
        reg.advertise(svc("c", host=2))
        reg.withdraw("c")
        reg.withdraw("ghost")  # a miss does not count
        assert reg.monitor.summary()["disc.withdraw"] == 1
        reg.withdraw_host(1)
        assert reg.monitor.summary()["disc.withdraw"] == 3

    def test_mutations_land_on_the_log(self):
        reg = make_registry()
        reg.advertise(svc("a", host=1))
        reg.advertise(svc("a", host=1))  # refresh
        reg.withdraw("a")
        reg.withdraw_host(1)
        assert [e.kind for e in reg.log] == [
            "advertise", "refresh", "withdraw", "withdraw-host"]

    def test_rebuild_from_log_is_identical(self):
        reg = make_registry()
        reg.advertise(svc("a", host=1))
        reg.advertise(svc("b", host=2))
        reg.withdraw_host(1)
        rebuilt = ReplicatedRegistry(reg.matcher, log=reg.log, live=False)
        assert repr(rebuilt.services()) == repr(reg.services())
        # a prefix replay reconstructs the earlier state
        assert sorted(oracle.replay(reg.log, upto_seq=2)) == ["a", "b"]

    def test_shared_log_materializes_at_construction(self):
        reg = make_registry()
        reg.advertise(svc("a"))
        twin = ReplicatedRegistry(reg.matcher, name="twin", log=reg.log)
        assert [s.name for s in twin.services()] == ["a"]


class TestDistributedBrokerNetwork:
    def make_net(self):
        regs = [make_registry(f"b{i}") for i in range(3)]
        regs[0].advertise(svc("local-printer"))
        regs[1].advertise(svc("remote-printer", queue_length=0))
        regs[2].advertise(svc("far-printer"))
        return regs, DistributedBrokerNetwork(regs, peers={"b0": ["b1"], "b1": ["b2"], "b2": []})

    def test_zero_hops_local_only(self):
        regs, net = self.make_net()
        results, asked = net.search(ServiceRequest(category="PrinterService"), home="b0", max_hops=0)
        assert [r.service.name for r in results] == ["local-printer"]
        assert asked == 1

    def test_one_hop_reaches_peer(self):
        regs, net = self.make_net()
        results, asked = net.search(ServiceRequest(category="PrinterService"), home="b0", max_hops=1)
        assert {r.service.name for r in results} == {"local-printer", "remote-printer"}
        assert asked == 2

    def test_two_hops_reaches_all(self):
        regs, net = self.make_net()
        results, asked = net.search(ServiceRequest(category="PrinterService"), home="b0", max_hops=2)
        assert asked == 3
        assert len(results) == 3

    def test_dedup_keeps_best(self):
        regs = [make_registry("a"), make_registry("b")]
        regs[0].advertise(svc("dup", category="DeviceService"))  # weaker match
        regs[1].advertise(svc("dup"))  # exact match
        net = DistributedBrokerNetwork(regs)
        results, _ = net.search(ServiceRequest(category="PrinterService"), home="a", max_hops=1)
        (r,) = [x for x in results if x.service.name == "dup"]
        assert r.service.category == "PrinterService"

    def test_merge_sorts_by_degree_score_name(self):
        """The merged answer is every member's results, best per name,
        sorted by ``MatchResult.sort_key``: degree, then score, then name."""
        regs = [make_registry(f"b{i}") for i in range(3)]
        categories = ["PrinterService", "ColorPrinterService", "DeviceService"]
        for i, reg in enumerate(regs):
            for j in range(6):
                reg.advertise(svc(f"p{(i + j) % 7}", category=categories[(i * j) % 3],
                                  queue_length=(i + 2 * j) % 5))
        net = DistributedBrokerNetwork(regs)
        req = ServiceRequest(category="PrinterService",
                             preferences=(Preference("queue_length"),))
        results, asked = net.search(req, home="b0", max_hops=1)
        best = {}
        for reg in regs:
            for r in oracle.rank(reg.matcher, req, reg.services()):
                key = (-int(r.degree), -r.score, r.service.name)
                if r.service.name not in best or key < best[r.service.name][0]:
                    best[r.service.name] = key, r
        expected = [r for _, r in sorted(best.values(), key=lambda kr: kr[0])]
        assert asked == 3
        assert ([(r.service.name, r.degree, r.score) for r in results]
                == [(r.service.name, r.degree, r.score) for r in expected])

    def test_full_mesh_default(self):
        regs = [make_registry("a"), make_registry("b")]
        net = DistributedBrokerNetwork(regs)
        assert net.peers == {"a": ["b"], "b": ["a"]}

    def test_withdraw_host_purges_every_broker(self):
        # the same service advertised (cached) at several brokers must not
        # stay reachable through peering after its host dies -- at ANY hop
        # limit
        regs = [make_registry(f"b{i}") for i in range(3)]
        for reg in regs:
            reg.advertise(svc("doomed", host=9))
        regs[1].advertise(svc("survivor", host=1))
        net = DistributedBrokerNetwork(regs, peers={"b0": ["b1"], "b1": ["b2"], "b2": []})
        assert net.withdraw_host(9) == 3
        for max_hops in (0, 1, 2, 5):
            for home in ("b0", "b1", "b2"):
                results, _ = net.search(ServiceRequest(category="PrinterService"),
                                        home=home, max_hops=max_hops)
                assert all(r.service.name != "doomed" for r in results)
        results, _ = net.search(ServiceRequest(category="PrinterService"),
                                home="b0", max_hops=2)
        assert [r.service.name for r in results] == ["survivor"]

    def test_validation(self):
        with pytest.raises(ValueError):
            DistributedBrokerNetwork([])
        with pytest.raises(ValueError):
            DistributedBrokerNetwork([make_registry("x"), make_registry("x")])
        with pytest.raises(KeyError):
            DistributedBrokerNetwork([make_registry("a")], peers={"a": ["ghost"]})
        net = DistributedBrokerNetwork([make_registry("a")])
        with pytest.raises(KeyError):
            net.search(ServiceRequest(category="PrinterService"), home="ghost")

    @pytest.mark.parametrize("use_degrees", [True, False])
    def test_top_k_equals_the_full_merge_cut(self, use_degrees):
        """Members asked for their own top k only: the merged answer is
        the full merge's first k, duplicates across brokers included."""
        rng = np.random.default_rng(7)
        population = [g.description for g in ServicePopulation(rng).generate(120)]
        regs = [ReplicatedRegistry(SemanticMatcher(build_service_ontology(), use_degrees=use_degrees),
                                   name=f"b{i}") for i in range(3)]
        for i, service in enumerate(population):
            regs[i % 3].advertise(service)
            if i % 4 == 0:  # the same name at a second broker, other attributes
                regs[(i + 1) % 3].advertise(dataclasses.replace(
                    service, attributes={**service.attributes, "queue_length": 9 - i % 10}))
        net = DistributedBrokerNetwork(regs)
        for category in ("PrinterService", "SensorService", "DataMiningService"):
            request = ServiceRequest(category=category,
                                     preferences=(Preference("queue_length", "minimize"),))
            full, asked = net.search(request, home="b0", max_hops=1)
            for k in (0, 1, 3, 10, len(full), len(full) + 5):
                assert net.search(request, home="b0", max_hops=1, top_k=k) == (full[:k], asked)
        # by score alone the idle general device leads; by degree the busy
        # colour printer does, and the merge sorts by degree
        small = [ReplicatedRegistry(regs[0].matcher, name=name) for name in ("s0", "s1")]
        small[0].advertise(svc("specific-busy", category="ColorPrinterService", queue_length=9))
        small[0].advertise(svc("general-idle", category="DeviceService", queue_length=0))
        small[1].advertise(svc("display", category="DisplayService", queue_length=5))
        net = DistributedBrokerNetwork(small)
        request = ServiceRequest(category="PrinterService",
                                 preferences=(Preference("queue_length", "minimize"),))
        full, asked = net.search(request, home="s0")
        for k in range(len(full) + 2):
            assert net.search(request, home="s0", top_k=k) == (full[:k], asked)

    def test_negative_top_k_rejected(self):
        """top_k=-1 used to drop the last match silently."""
        regs, net = self.make_net()
        with pytest.raises(ValueError, match="top_k"):
            net.search(ServiceRequest(category="PrinterService"), home="b0", max_hops=2, top_k=-1)


class TestBrokerAgent:
    def setup_platform(self):
        sim = Simulator()
        platform = AgentPlatform(sim)
        broker = BrokerAgent("broker", make_registry())
        platform.register(broker)
        client = Agent("client")
        client.replies = []
        client.on(Performative.INFORM, client.replies.append)
        client.on(Performative.FAILURE, client.replies.append)
        platform.register(client)
        return sim, platform, broker, client

    def test_advertise_then_query(self):
        sim, platform, broker, client = self.setup_platform()
        client.ask("broker", Performative.ADVERTISE, svc("p1"))
        sim.run()
        client.ask("broker", Performative.QUERY, ServiceRequest(category="PrinterService"))
        sim.run()
        assert client.replies[0].content == {"registered": "p1"}
        matches = client.replies[1].content
        assert [m.service.name for m in matches] == ["p1"]

    def test_unadvertise(self):
        sim, platform, broker, client = self.setup_platform()
        client.ask("broker", Performative.ADVERTISE, svc("p1"))
        sim.run()
        client.ask("broker", Performative.UNADVERTISE, "p1")
        sim.run()
        assert client.replies[-1].content == {"removed": True}
        assert len(broker.registry) == 0

    def test_bad_payload_gets_failure(self):
        sim, platform, broker, client = self.setup_platform()
        client.ask("broker", Performative.QUERY, "not-a-request")
        client.ask("broker", Performative.ADVERTISE, 42)
        sim.run()
        perfs = [m.performative for m in client.replies]
        assert perfs == [Performative.FAILURE, Performative.FAILURE]

    def test_unadvertise_garbage_gets_failure(self):
        # a non-str payload used to be str()-coerced and answered INFORM;
        # it must be rejected like every other malformed request
        sim, platform, broker, client = self.setup_platform()
        broker.registry.advertise(svc("p1"))
        client.ask("broker", Performative.UNADVERTISE, 42)
        client.ask("broker", Performative.UNADVERTISE, svc("p1"))
        sim.run()
        perfs = [m.performative for m in client.replies]
        assert perfs == [Performative.FAILURE, Performative.FAILURE]
        assert broker.registry.get("p1") is not None  # nothing was removed

    def test_top_k_enforced(self):
        sim, platform, broker, client = self.setup_platform()
        broker.top_k = 2
        for i in range(5):
            broker.registry.advertise(svc(f"p{i}"))
        client.ask("broker", Performative.QUERY, ServiceRequest(category="PrinterService"))
        sim.run()
        assert len(client.replies[-1].content) == 2


class TestJiniBaseline:
    def test_exact_interface_match_only(self):
        jini = JiniLookup()
        jini.register(svc("mono", category="PrinterService"))
        jini.register(svc("color", category="ColorPrinterService"))
        # Jini finds only the exact interface string
        assert [s.name for s in jini.lookup("PrinterService")] == ["mono"]
        assert [s.name for s in jini.lookup("ColorPrinterService")] == ["color"]
        assert jini.lookup("Printer") == []

    def test_unregister(self):
        jini = JiniLookup()
        jini.register(svc("a"))
        assert jini.unregister("a")
        assert not jini.unregister("a")
        assert jini.lookup("PrinterService") == []
        assert len(jini) == 0

    def test_multiple_interfaces(self):
        jini = JiniLookup()
        s = ServiceDescription("multi", "PrinterService", interfaces=("Printer", "Fax"))
        jini.register(s)
        assert jini.lookup("Printer") == [s]
        assert jini.lookup("Fax") == [s]


class TestSDPBaseline:
    def test_uuid_match(self):
        sdp = BluetoothSDP()
        a = svc("a", class_uuid="uuid-print")
        b = svc("b", class_uuid="uuid-print")
        c = svc("c", class_uuid="uuid-scan")
        for s in (a, b, c):
            sdp.register(s)
        assert [s.name for s in sdp.lookup("uuid-print")] == ["a", "b"]
        assert sdp.lookup("uuid-unknown") == []

    def test_fallback_to_instance_uuid(self):
        sdp = BluetoothSDP()
        s = svc("solo")
        sdp.register(s)
        assert sdp.lookup(s.uuid) == [s]

    def test_unregister(self):
        sdp = BluetoothSDP()
        s = svc("a", class_uuid="u")
        sdp.register(s)
        assert sdp.unregister("a")
        assert sdp.lookup("u") == []
        assert not sdp.unregister("a")


class TestSLPBaseline:
    def test_type_and_equality_filter(self):
        slp = SLPDirectory()
        slp.register(svc("c1", color=True, cost=0.08))
        slp.register(svc("c2", color=False, cost=0.02))
        assert [s.name for s in slp.lookup("PrinterService")] == ["c1", "c2"]
        assert [s.name for s in slp.lookup("PrinterService", {"color": True})] == ["c1"]
        # SLP cannot express cost <= 0.10; only equality
        assert slp.lookup("PrinterService", {"cost": 0.10}) == []

    def test_missing_attribute_fails(self):
        slp = SLPDirectory()
        slp.register(svc("c1"))
        assert slp.lookup("PrinterService", {"color": True}) == []

    def test_custom_type_string(self):
        slp = SLPDirectory()
        slp.register(svc("c1", slp_type="service:printer"))
        assert [s.name for s in slp.lookup("service:printer")] == ["c1"]
        assert slp.lookup("PrinterService") == []

    def test_unregister(self):
        slp = SLPDirectory()
        slp.register(svc("a"))
        assert slp.unregister("a")
        assert not slp.unregister("a")
        assert len(slp) == 0
