"""Unit tests for the sharded, replicated registry over a shared log."""

import pytest

from repro.discovery import (
    Preference,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceDescription,
    ServiceRegistry,
    ServiceRequest,
    build_service_ontology,
)
from repro.discovery.log import EventLog
from repro.discovery.replica import ReplicaRegistry
from repro.discovery.shard import ShardMap
from repro.simkernel.monitor import Monitor


def matcher():
    return SemanticMatcher(build_service_ontology())


def svc(name, category="PrinterService", host=None, **attrs):
    return ServiceDescription(name=name, category=category, host_node=host,
                              attributes=attrs)


def populate(registry, n=24):
    categories = ["PrinterService", "ColorPrinterService", "DisplayService",
                  "ComputeService", "StorageService", "SensorService"]
    for i in range(n):
        registry.advertise(svc(f"s{i:02d}", category=categories[i % len(categories)],
                               host=i % 5, queue_length=i % 7))


class TestReplicaRegistry:
    def test_accepts_only_owned_categories(self):
        m = matcher()
        smap = ShardMap(4, replication=1)
        log = EventLog()
        log.append_advertise(svc("a", category="PrinterService"))
        log.append_advertise(svc("b", category="DisplayService"))
        owner = smap.primary_of("PrinterService")
        replica = ReplicaRegistry(m, owner, smap)
        replica.rebuild(log)
        held = {s.name for s in replica.services()}
        assert "a" in held
        if smap.primary_of("DisplayService") != owner:
            assert "b" not in held

    def test_withdrawals_always_apply(self):
        m = matcher()
        smap = ShardMap(2, replication=2)  # both shards own everything
        replica = ReplicaRegistry(m, 0, smap)
        log = EventLog()
        log.append_advertise(svc("a", host=1))
        log.append_withdraw("a")
        replica.rebuild(log)
        assert len(replica) == 0
        assert replica.applied_seq == 2


class TestReplicatedRegistry:
    @pytest.mark.parametrize("n_shards,replication", [(1, 1), (2, 2), (4, 2), (8, 3)])
    def test_equivalent_to_plain_registry(self, n_shards, replication):
        m = matcher()
        plain = ServiceRegistry(m)
        rep = ReplicatedRegistry(m, n_shards, replication)
        populate(plain)
        populate(rep)
        plain.withdraw("s03")
        rep.withdraw("s03")
        plain.withdraw_host(2)
        rep.withdraw_host(2)
        assert [s.name for s in rep.services()] == [s.name for s in plain.services()]
        request = ServiceRequest(category="PrinterService",
                                 preferences=(Preference("queue_length", "minimize"),))
        assert ([(r.service.name, r.score) for r in rep.search(request, top_k=10)]
                == [(r.service.name, r.score) for r in plain.search(request, top_k=10)])

    def test_single_replica_down_loses_nothing(self):
        m = matcher()
        rep = ReplicatedRegistry(m, 4, 2)
        populate(rep)
        everything = [s.name for s in rep.services()]
        request = ServiceRequest(category="PrinterService")
        baseline = [r.service.name for r in rep.search(request)]
        for shard in range(4):
            rep.mark_down(shard)
            assert [s.name for s in rep.services()] == everything
            assert [r.service.name for r in rep.search(request)] == baseline
            rep.mark_up(shard)

    def test_len_counts_distinct_names_on_up_replicas(self):
        m = matcher()
        for replication in (1, 2):
            rep = ReplicatedRegistry(m, 4, replication)
            populate(rep)
            rep.withdraw_host(2)
            assert len(rep) == len(rep.services()) == 24 - 5
            for shard in range(4):
                rep.mark_down(shard)
                assert len(rep) == len(rep.services())
                rep.mark_up(shard)
            for shard in range(4):
                rep.mark_down(shard)
            assert len(rep) == 0

    def test_rebuild_is_byte_identical(self):
        m = matcher()
        rep = ReplicatedRegistry(m, 4, 2)
        populate(rep)
        rep.withdraw_host(1)
        before = repr(rep.services())
        per_replica = [repr(r.services()) for r in rep.replicas]
        rep.rebuild()
        assert repr(rep.services()) == before
        assert [repr(r.services()) for r in rep.replicas] == per_replica

    def test_detached_view_lags_then_catches_up(self):
        m = matcher()
        log = EventLog()
        writer = ReplicatedRegistry(m, 2, 1, log=log)
        standby = ReplicatedRegistry(m, 2, 1, log=log, live=False)
        populate(writer, n=6)
        assert standby.lag == 6
        assert len(standby) == 0
        assert standby.catch_up() == 6
        assert standby.lag == 0
        assert [s.name for s in standby.services()] == [s.name for s in writer.services()]
        assert standby.replayed_events == 6

    def test_attach_goes_live(self):
        m = matcher()
        log = EventLog()
        writer = ReplicatedRegistry(m, 2, 1, log=log)
        view = ReplicatedRegistry(m, 2, 1, log=log, live=False)
        view.attach()
        writer.advertise(svc("late"))
        assert view.lag == 0
        assert view.get("late") is not None
        view.detach()
        writer.advertise(svc("later"))
        assert view.lag == 1
        assert view.get("later") is None

    def test_withdraw_counts_distinct_services(self):
        m = matcher()
        rep = ReplicatedRegistry(m, 4, 3)  # every service lives on 3 replicas
        rep.advertise(svc("a", host=1))
        rep.advertise(svc("b", host=1))
        rep.advertise(svc("c", host=2))
        rep.withdraw("c")
        assert rep.withdraw_count == 1
        assert rep.withdraw_host(1) == 2
        assert rep.withdraw_count == 3

    def test_monitor_counters(self):
        mon = Monitor()
        rep = ReplicatedRegistry(matcher(), 2, 1, monitor=mon)
        rep.advertise(svc("a"))
        rep.search(ServiceRequest(category="PrinterService"))
        rep.withdraw("a")
        summary = mon.summary()
        assert summary["disc.advertise"] == 1
        assert summary["disc.search"] == 1
        assert summary["disc.withdraw"] == 1
