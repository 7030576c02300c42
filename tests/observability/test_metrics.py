"""Metric naming conventions: the catalog and the subsystem rollup."""

import pytest

from repro.observability.metrics import (
    CONVENTIONS,
    INSTRUMENTS,
    MetricSpec,
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
            "net.sent", "net.delivered", "net.dropped", "net.energy_j", "queries.latency",
            "wms.tasks_requeued", "composition.rebinds",
            "faults.injected", "resilience.breaker.trips",
        }
        assert expected <= set(CONVENTIONS)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="instrument"):
            MetricSpec("net.x", "dial", "1", "nope")
        with pytest.raises(ValueError, match="subsystem"):
            MetricSpec("flat", "counter", "1", "nope")

    def test_subsystem_property(self):
        assert CONVENTIONS["net.sent"].subsystem == "net"
        assert CONVENTIONS["grid.queue_wait"].subsystem == "grid"


class TestCanonicalSummary:
    def test_rollup_groups_by_subsystem(self):
        monitor = Monitor()
        monitor.counter("net.sent").add(4)
        monitor.counter("net.dropped").add(1)
        monitor.counter("grid.jobs_dispatched").add(2)
        monitor.counter("net.energy_j").add(0.5)
        grouped = rollup_by_subsystem(monitor)
        assert list(grouped) == ["grid", "net"]
        assert grouped["net"]["net.sent"] == 4.0
        assert grouped["net"]["net.energy_j"] == 0.5
        assert grouped["net"]["net.sent.increments"] == 1
        for sub, vals in grouped.items():
            assert list(vals) == sorted(vals)
