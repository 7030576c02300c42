"""Metric naming conventions: the catalog, aliases, canonical summaries."""

import pytest

from repro.observability.metrics import (
    ALIASES,
    CONVENTIONS,
    INSTRUMENTS,
    MetricSpec,
    canonical_name,
    canonical_summary,
    rollup_by_subsystem,
)
from repro.simkernel import Monitor


class TestCatalog:
    def test_specs_are_well_formed(self):
        for name, spec in CONVENTIONS.items():
            assert spec.name == name
            assert spec.instrument in INSTRUMENTS
            assert "." in spec.name
            assert spec.description

    def test_expected_canonical_names_present(self):
        expected = {
            "net.msgs_sent", "energy.j_spent", "queries.latency",
            "wms.tasks_requeued", "composition.rebinds",
            "faults.injected", "resilience.breaker_trips",
        }
        assert expected <= set(CONVENTIONS)

    def test_aliases_target_catalog_entries(self):
        for legacy, canonical in ALIASES.items():
            assert canonical in CONVENTIONS
            assert legacy not in CONVENTIONS  # aliases never shadow

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="instrument"):
            MetricSpec("net.x", "dial", "1", "nope")
        with pytest.raises(ValueError, match="subsystem"):
            MetricSpec("flat", "counter", "1", "nope")

    def test_subsystem_property(self):
        assert CONVENTIONS["net.msgs_sent"].subsystem == "net"
        assert CONVENTIONS["grid.queue_wait"].subsystem == "grid"


class TestCanonicalName:
    def test_identity_for_unknown_and_canonical(self):
        assert canonical_name("net.msgs_sent") == "net.msgs_sent"
        assert canonical_name("custom.thing") == "custom.thing"

    def test_alias_mapping(self):
        assert canonical_name("net.sent") == "net.msgs_sent"
        assert canonical_name("resilience.breaker.trips") == "resilience.breaker_trips"

    def test_summary_suffixes_follow_the_alias(self):
        assert canonical_name("net.sent.increments") == "net.msgs_sent.increments"
        assert canonical_name("net.energy_j.total") == "energy.j_spent.total"


class TestCanonicalSummary:
    def test_rekeys_legacy_counters(self):
        monitor = Monitor()
        monitor.counter("net.sent").add(3)
        summary = canonical_summary(monitor)
        assert summary["net.msgs_sent"] == 3.0
        assert summary["net.msgs_sent.increments"] == 1
        assert "net.sent" not in summary

    def test_colliding_twins_are_summed(self):
        monitor = Monitor()
        monitor.counter("net.sent").add(2)
        monitor.counter("net.msgs_sent").add(5)
        summary = canonical_summary(monitor)
        assert summary["net.msgs_sent"] == 7.0
        assert summary["net.msgs_sent.increments"] == 2

    def test_keys_are_sorted(self):
        monitor = Monitor()
        monitor.counter("queries.submitted").add()
        monitor.counter("net.sent").add()
        monitor.gauge("faults.active").set(1.0)
        keys = list(canonical_summary(monitor))
        assert keys == sorted(keys)

    def test_rollup_groups_by_subsystem(self):
        monitor = Monitor()
        monitor.counter("net.sent").add(4)
        monitor.counter("net.dropped").add(1)
        monitor.counter("grid.jobs_dispatched").add(2)
        monitor.counter("net.energy_j").add(0.5)  # aliases into energy.*
        grouped = rollup_by_subsystem(monitor)
        assert list(grouped) == ["energy", "grid", "net"]
        assert grouped["net"]["net.msgs_sent"] == 4.0
        assert grouped["energy"]["energy.j_spent"] == 0.5
        for sub, vals in grouped.items():
            assert list(vals) == sorted(vals)
