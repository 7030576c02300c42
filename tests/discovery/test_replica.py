"""Unit tests for the sharded, replicated registry over a shared log."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.discovery import (
    Constraint,
    Preference,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceDescription,
    ServiceRequest,
    build_service_ontology,
)
from repro.discovery.log import EventLog
from repro.simkernel.monitor import Monitor
from tests.discovery import oracle, strategies
from tests.discovery.oracle import PlainRegistry, ShardFold


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


def moved_categories(smap):
    """Two categories the ring stores on different shard sets."""
    categories = build_service_ontology().classes()
    first = categories[0]
    other = next(c for c in categories if smap.owners_of(c) != smap.owners_of(first))
    return first, other


class TestReplicaRegistry:
    """Shard views against :class:`ShardFold`, the shard's own fold."""

    def test_accepts_only_owned_categories(self):
        log = EventLog()
        log.append_advertise(svc("a", category="PrinterService"))
        log.append_advertise(svc("b", category="DisplayService"))
        rep = ReplicatedRegistry(matcher(), 4, 1, log=log)
        smap = rep.shard_map
        owner = smap.primary_of("PrinterService")
        replica = rep.replicas[owner]
        held = {s.name for s in replica.services()}
        assert "a" in held
        if smap.primary_of("DisplayService") != owner:
            assert "b" not in held
            assert replica.get("b") is None
        for shard, view in enumerate(rep.replicas):
            fold = ShardFold(shard, smap).rebuild(log)
            assert view.services() == fold.services()
            assert len(view) == len(fold)

    def test_withdrawals_always_apply(self):
        rep = ReplicatedRegistry(matcher(), 2, 2)  # both shards own everything
        rep.advertise(svc("a", host=1))
        rep.withdraw("a")
        for shard, replica in enumerate(rep.replicas):
            fold = ShardFold(shard, rep.shard_map).rebuild(rep.log)
            assert len(replica) == len(fold) == 0
            assert fold.applied_seq == rep.applied_seq == 2


class TestReplicatedRegistry:
    @pytest.mark.parametrize("n_shards,replication", [(1, 1), (2, 2), (4, 2), (8, 3)])
    def test_equivalent_to_plain_registry(self, n_shards, replication):
        m = matcher()
        plain = PlainRegistry(m)
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
        """Counts and searches see the classes with an up owner, down to
        none at all."""
        m = matcher()
        request = ServiceRequest(category="PrinterService",
                                 constraints=(Constraint("queue_length", "<=", 5),),
                                 preferences=(Preference("queue_length", "minimize"),))

        def check(rep):
            assert len(rep) == len(rep.services())
            assert (strategies.outcome(rep.search, request)
                    == strategies.outcome(oracle.rank, m, request, rep.services()))

        for replication in (1, 2):
            rep = ReplicatedRegistry(m, 4, replication)
            populate(rep)
            rep.withdraw_host(2)
            assert len(rep) == len(rep.services()) == 24 - 5
            for shard in range(4):
                rep.mark_down(shard)
                check(rep)
                rep.mark_up(shard)
            for shard in range(4):
                rep.mark_down(shard)
                check(rep)
            assert len(rep) == 0
            assert rep.search(request) == []

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
        mon = Monitor()
        writer = ReplicatedRegistry(m, 2, 1, log=log)
        standby = ReplicatedRegistry(m, 2, 1, log=log, live=False, monitor=mon)
        populate(writer, n=6)
        assert standby.lag == 6
        assert len(standby) == 0
        assert standby.catch_up() == 6
        assert standby.lag == 0
        assert [s.name for s in standby.services()] == [s.name for s in writer.services()]
        assert mon.summary()["disc.replay_events"] == 6

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
        mon = Monitor()
        rep = ReplicatedRegistry(matcher(), 4, 3, monitor=mon)  # 3 copies each
        rep.advertise(svc("a", host=1))
        rep.advertise(svc("b", host=1))
        rep.advertise(svc("c", host=2))
        rep.withdraw("c")
        assert mon.summary()["disc.withdraw"] == 1
        assert rep.withdraw_host(1) == 2
        assert mon.summary()["disc.withdraw"] == 3

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

    @pytest.mark.parametrize("n_shards,replication", [(2, 1), (4, 1), (4, 2), (8, 3)])
    def test_refresh_under_new_category_leaves_no_stale_copy(self, n_shards, replication):
        rep = ReplicatedRegistry(matcher(), n_shards, replication)
        old, new = moved_categories(rep.shard_map)
        rep.advertise(svc("a", category=old, host=1))
        moved = svc("a", category=new, host=1)
        rep.advertise(moved)
        holders = [r.get("a") for r in rep.replicas if r.get("a") is not None]
        assert holders == [moved] * replication
        for shard in range(n_shards):
            if replication > 1:
                rep.mark_down(shard)
            assert rep.get("a") is moved
            assert rep.services() == [moved]
            rep.mark_up(shard)
        assert rep.withdraw("a") is True
        assert all(r.get("a") is None for r in rep.replicas)

    def test_writes_while_the_only_owner_is_down(self):
        mon = Monitor()
        rep = ReplicatedRegistry(matcher(), 2, 1, monitor=mon)
        owner = rep.shard_map.primary_of("PrinterService")
        rep.advertise(svc("a", host=1))
        rep.advertise(svc("b", host=1))
        rep.advertise(svc("c", host=1))
        rep.mark_down(owner)
        assert rep.get("a") is None  # reads see up replicas only
        rep.advertise(svc("a", host=1, queue_length=3))
        assert rep.log.events()[-1].kind == "refresh"
        assert rep.withdraw("a") is True
        assert mon.summary()["disc.withdraw"] == 1
        assert rep.withdraw_host(1) == 2
        assert mon.summary()["disc.withdraw"] == 3
        rep.mark_up(owner)
        assert len(rep) == 0

    @pytest.mark.parametrize("shard", [-1, 4, 5])
    def test_shard_out_of_range_raises(self, shard):
        """A negative id used to wrap to the last shard."""
        rep = ReplicatedRegistry(matcher(), 4, 2)
        for mark in (rep.mark_down, rep.mark_up):
            with pytest.raises(IndexError, match="out of range"):
                mark(shard)
        assert all(replica.up for replica in rep.replicas)

    def test_negative_top_k_rejected(self):
        mon = Monitor()
        rep = ReplicatedRegistry(matcher(), 2, 1, monitor=mon)
        populate(rep, n=6)
        with pytest.raises(ValueError, match="top_k"):
            rep.search(ServiceRequest(category="PrinterService"), top_k=-1)
        assert "disc.search" not in mon.counters()

    def test_write_through_detached_view_raises(self):
        m = matcher()
        log = EventLog()
        writer = ReplicatedRegistry(m, 2, 1, log=log)
        standby = ReplicatedRegistry(m, 2, 1, log=log, live=False, name="standby-1")
        populate(writer, n=6)
        for write, arg in ((standby.advertise, svc("x")), (standby.withdraw, "s00"),
                           (standby.withdraw_host, 0)):
            with pytest.raises(RuntimeError, match="standby-1"):
                write(arg)
        assert len(log) == 6
        assert standby.catch_up() == 6
        standby.attach()
        standby.advertise(svc("x"))
        assert len(standby) == len(writer) == 7


# ----------------------------------------------------------------------
# every shape against the one-dict registry and the per-shard folds
# ----------------------------------------------------------------------
CATEGORIES = ("PrinterService", "ColorPrinterService", "LaserPrinterService",
              "DisplayService", "ComputeService", "StorageService",
              "DecisionTreeService", "TemperatureSensorService")
NAMES = "abcdefgh"
HOSTS = (0, 1, 2)

_request = st.builds(
    lambda category, constraints, preferences: ServiceRequest(
        category=category, constraints=constraints, preferences=preferences),
    st.sampled_from(CATEGORIES),
    st.one_of(  # the market's numeric bounds, or anything
        st.lists(st.builds(Constraint, st.sampled_from(strategies.ATTRIBUTES),
                           st.sampled_from(("<", "<=")), st.floats(0.0, 10.0)), max_size=2),
        st.lists(strategies.constraints, max_size=2)),
    st.lists(strategies.preferences, max_size=2),
)
_step = st.one_of(
    st.tuples(st.just("advertise"), st.sampled_from(NAMES), st.sampled_from(CATEGORIES),
              st.sampled_from(HOSTS), strategies.attribute_maps()),
    st.tuples(st.just("refresh"), st.integers(0, 7),
              st.one_of(st.none(), st.sampled_from(CATEGORIES)),
              st.sampled_from(strategies.ATTRIBUTES), strategies.attribute_values),
    st.tuples(st.just("withdraw"), st.one_of(st.integers(0, 7), st.just("z"))),
    st.tuples(st.just("withdraw_host"), st.sampled_from(HOSTS)),
    st.tuples(st.just("search"), _request, st.one_of(st.none(), st.integers(0, 5))),
    st.tuples(st.just("mark_down"), st.integers(0, 7)),
    st.tuples(st.just("mark_up"), st.integers(0, 7)),
    st.tuples(st.just("standby"), st.sampled_from(("catch_up", "attach", "detach", "write"))),
)


def _assert_views_match_folds(registry, folds):
    """Every shard view of ``registry`` shows what that shard's own fold
    of the log prefix ``registry`` applied holds."""
    for view, fold in zip(registry.replicas, folds):
        for event in registry.log.events(fold.applied_seq, registry.applied_seq):
            fold.apply(event)
        assert view.services() == fold.services()
        assert len(view) == len(fold)
        for name in NAMES + "z":
            assert view.get(name) is fold.get(name)


class TestReplicatedMatchesPlainRegistry:
    """One random script drives a registry of a random shape, a standby
    view over its log and the one-dict :class:`PlainRegistry`; after
    every step they must agree on return values, reads, rankings (also
    against the per-candidate reference rank), the logged event kinds
    and the ``disc.*`` counters, and every shard view of either registry
    must equal that shard's own fold of the log."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.data(), st.lists(_step, min_size=5, max_size=40))
    def test_random_script(self, n_shards, data, script):
        replication = data.draw(st.integers(1, n_shards))
        # every name starts live, so withdrawals and refreshes have targets
        places = data.draw(st.lists(st.tuples(st.sampled_from(CATEGORIES), st.sampled_from(HOSTS)),
                                    min_size=len(NAMES), max_size=len(NAMES)))
        script = [("advertise", name, category, host, {"queue_length": 0, "cost_per_use": 0.5})
                  for name, (category, host) in zip(NAMES, places)] + script
        m = matcher()
        plain = PlainRegistry(m)
        mon, standby_mon = Monitor(), Monitor()
        rep = ReplicatedRegistry(m, n_shards, replication, monitor=mon)
        standby = ReplicatedRegistry(m, n_shards, replication, log=rep.log,
                                     live=False, monitor=standby_mon, name="standby")
        folds = [ShardFold(shard, rep.shard_map) for shard in range(n_shards)]
        standby_folds = [ShardFold(shard, rep.shard_map) for shard in range(n_shards)]
        down: set[int] = set()
        synced, replayed = 0, 0  # log events the standby applied / replayed
        frozen = []  # the standby's listing when it last synced
        for step in script:
            kind = step[0]
            if kind == "advertise":
                _, name, category, host, attributes = step
                ad = ServiceDescription(name=name, category=category, host_node=host,
                                        attributes=attributes)
                assert rep.advertise(ad) is plain.advertise(ad) is None
            elif kind == "refresh":
                live = plain.services()
                if live:
                    _, index, category, key, value = step
                    old = live[index % len(live)]
                    ad = ServiceDescription(name=old.name, category=category or old.category,
                                            host_node=old.host_node,
                                            attributes={**old.attributes, key: value})
                    assert rep.advertise(ad) is plain.advertise(ad) is None
            elif kind == "withdraw":
                live = plain.services()
                name = live[step[1] % len(live)].name if live and step[1] != "z" else "z"
                assert rep.withdraw(name) is plain.withdraw(name)
            elif kind == "withdraw_host":
                assert rep.withdraw_host(step[1]) == plain.withdraw_host(step[1])
            elif kind == "search":
                _, request, top_k = step
                got = strategies.outcome(rep.search, request, top_k=top_k)
                assert got == strategies.outcome(plain.search, request, top_k=top_k)
                assert got == strategies.outcome(oracle.rank, m, request, plain.services(), top_k)
            elif kind == "mark_down":
                shard = step[1] % n_shards
                if shard in down or len(down) < replication - 1:
                    rep.mark_down(shard)
                    down.add(shard)
            elif kind == "mark_up":
                shard = step[1] % n_shards
                rep.mark_up(shard)
                down.discard(shard)
            elif step[1] == "write":
                if not standby.live:
                    with pytest.raises(RuntimeError, match="standby"):
                        standby.advertise(svc("z"))
            elif step[1] == "detach":
                standby.detach()
            else:
                lag = len(rep.log) - synced
                if step[1] == "catch_up":
                    assert standby.catch_up() == lag
                else:
                    standby.attach()
                replayed += lag
                synced, frozen = len(rep.log), plain.services()
            if standby.live:
                synced, frozen = len(rep.log), plain.services()

            listing = plain.services()
            assert rep.services() == listing
            assert len(rep) == len(plain)
            for name in NAMES + "z":
                assert rep.get(name) is plain.get(name)
            assert [e.kind for e in rep.log] == plain.kinds
            assert mon.counters() == plain.monitor.counters()
            assert standby.lag == len(rep.log) - synced
            assert standby.services() == frozen
            _assert_views_match_folds(rep, folds)
            _assert_views_match_folds(standby, standby_folds)
            if standby.lag == 0:
                withdrawn = mon.counters().get("disc.withdraw", 0)
                expected = {"disc.withdraw": withdrawn, "disc.replay_events": replayed}
                assert standby_mon.counters() == {k: v for k, v in expected.items() if v}
