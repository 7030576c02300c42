"""Unit tests for the append-only registry event log."""

import pytest

from repro.discovery import ServiceDescription
from repro.discovery.log import EventLog, RegistryEvent, apply_event
from tests.discovery import oracle


def svc(name, category="PrinterService", host=None):
    return ServiceDescription(name=name, category=category, host_node=host)


class TestRegistryEvent:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            RegistryEvent(1, 0.0, "mutate", service=svc("a"))

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            RegistryEvent(1, 0.0, "advertise")  # no service
        with pytest.raises(ValueError):
            RegistryEvent(1, 0.0, "refresh")
        with pytest.raises(ValueError):
            RegistryEvent(1, 0.0, "withdraw")  # no name
        with pytest.raises(ValueError):
            RegistryEvent(1, 0.0, "withdraw-host")  # no host

    def test_category_property(self):
        ad = RegistryEvent(1, 0.0, "advertise", service=svc("a", category="X"))
        wd = RegistryEvent(2, 0.0, "withdraw", service_name="a")
        assert ad.category == "X"
        assert wd.category is None


class TestApplyEvent:
    def test_advertise_then_withdraw(self):
        state = {}
        assert apply_event(state, RegistryEvent(1, 0.0, "advertise", service=svc("a"))) == 0
        assert set(state) == {"a"}
        assert apply_event(state, RegistryEvent(2, 0.0, "withdraw", service_name="a")) == 1
        assert apply_event(state, RegistryEvent(3, 0.0, "withdraw", service_name="a")) == 0
        assert state == {}

    def test_refresh_overwrites(self):
        state = {}
        apply_event(state, RegistryEvent(1, 0.0, "advertise", service=svc("a", category="X")))
        apply_event(state, RegistryEvent(2, 0.0, "refresh", service=svc("a", category="Y")))
        assert state["a"].category == "Y"

    def test_withdraw_host_counts(self):
        state = {}
        for i, host in enumerate([3, 3, 4]):
            apply_event(state, RegistryEvent(i + 1, 0.0, "advertise",
                                             service=svc(f"s{i}", host=host)))
        assert apply_event(state, RegistryEvent(4, 0.0, "withdraw-host", host_node=3)) == 2
        assert set(state) == {"s2"}

    def test_accept_filters_advertisements_only(self):
        state = {}
        accept = lambda s: s.category == "X"
        apply_event(state, RegistryEvent(1, 0.0, "advertise", service=svc("a", category="X")),
                    accept=accept)
        apply_event(state, RegistryEvent(2, 0.0, "advertise", service=svc("b", category="Y")),
                    accept=accept)
        assert set(state) == {"a"}
        # withdrawals always apply, even for names the filter rejected
        assert apply_event(state, RegistryEvent(3, 0.0, "withdraw", service_name="a"),
                           accept=lambda s: False) == 1

    def test_rejected_refresh_drops_the_name(self):
        state = {}
        accept = lambda s: s.category == "X"
        apply_event(state, RegistryEvent(1, 0.0, "advertise", service=svc("a", category="X")),
                    accept=accept)
        # the service moved to a category this state does not hold
        assert apply_event(state, RegistryEvent(2, 0.0, "refresh",
                                                service=svc("a", category="Y")),
                           accept=accept) == 0
        assert state == {}


class TestEventLog:
    def test_seq_is_monotonic_and_dense(self):
        log = EventLog()
        log.append_advertise(svc("a"))
        log.append_withdraw("a")
        log.append_withdraw_host(7)
        assert [e.seq for e in log] == [1, 2, 3]
        assert log.last_seq == 3
        assert len(log) == 3

    def test_clock_stamps_appends(self):
        now = [0.0]
        log = EventLog(clock=lambda: now[0])
        log.append_advertise(svc("a"))
        now[0] = 5.5
        log.append_withdraw("a")
        assert [e.time_s for e in log] == [0.0, 5.5]

    def test_events_slicing(self):
        log = EventLog()
        for i in range(5):
            log.append_advertise(svc(f"s{i}"))
        assert [e.seq for e in log.events()] == [1, 2, 3, 4, 5]
        assert [e.seq for e in log.events(after_seq=2)] == [3, 4, 5]
        assert [e.seq for e in log.events(after_seq=2, upto_seq=4)] == [3, 4]
        assert log.events(after_seq=5) == []
        with pytest.raises(ValueError):
            log.events(after_seq=-1)

    @pytest.mark.parametrize("upto", [-1, -2])
    def test_negative_upto_rejected(self, upto):
        """A negative bound used to slice from the end: events(upto_seq=-1)
        on a 3-event log returned seqs 1-2."""
        log = EventLog()
        for i in range(3):
            log.append_advertise(svc(f"s{i}"))
        with pytest.raises(ValueError, match="upto_seq"):
            log.events(upto_seq=upto)
        with pytest.raises(ValueError, match="upto_seq"):
            oracle.replay(log, upto_seq=upto)

    def test_replay_prefix_is_deterministic(self):
        log = EventLog()
        log.append_advertise(svc("a", host=1))
        log.append_advertise(svc("b", host=2))
        log.append_withdraw_host(1)
        log.append_advertise(svc("c", host=1))
        full = oracle.replay(log)
        assert set(full) == {"b", "c"}
        assert oracle.replay(log) == full  # replay is pure
        assert set(oracle.replay(log, upto_seq=2)) == {"a", "b"}

    def test_replay_tail_into_existing_state(self):
        """A standby's catch-up: folding the tail into the state it holds
        equals a replay of the whole log."""
        log = EventLog()
        log.append_advertise(svc("a"))
        state = oracle.replay(log)
        log.append_advertise(svc("b"))
        log.append_withdraw("a")
        for event in log.events(after_seq=1):
            apply_event(state, event)
        assert set(state) == {"b"}
        assert state == oracle.replay(log)

    def test_subscribe_and_unsubscribe(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.subscribe(seen.append)  # idempotent
        log.append_advertise(svc("a"))
        assert [e.seq for e in seen] == [1]
        log.unsubscribe(seen.append)
        log.unsubscribe(seen.append)  # no-op when absent
        log.append_advertise(svc("b"))
        assert len(seen) == 1
