"""Smoke tests for the public API surface."""

import pytest


class TestRootPackage:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None

    def test_quickstart_snippet(self):
        """The README's four-line quick start must keep working."""
        from repro import PervasiveGridRuntime

        rt = PervasiveGridRuntime(n_sensors=9, area_m=20.0, seed=42,
                                  grid_resolution=12)
        out = rt.query("SELECT AVG(value) FROM sensors WHERE room = 2")
        assert out[0].success


class TestSubpackageExports:
    @pytest.mark.parametrize("module", [
        "repro.simkernel",
        "repro.network",
        "repro.network.routing",
        "repro.sensors",
        "repro.grid",
        "repro.agents",
        "repro.discovery",
        "repro.discovery.protocols",
        "repro.composition",
        "repro.faults",
        "repro.resilience",
        "repro.pde",
        "repro.datamining",
        "repro.queries",
        "repro.queries.models",
        "repro.core",
        "repro.workloads",
        "repro.wms",
    ])
    def test_all_names_resolve(self, module):
        import importlib

        mod = importlib.import_module(module)
        exported = getattr(mod, "__all__", [])
        assert exported, f"{module} exports nothing"
        for name in exported:
            assert getattr(mod, name, None) is not None, f"{module}.{name} missing"

    def test_every_public_item_documented(self):
        """Every exported class/function carries a docstring."""
        import importlib
        import inspect

        undocumented = []
        for module in [
            "repro.simkernel", "repro.network", "repro.sensors", "repro.grid",
            "repro.agents", "repro.discovery", "repro.composition", "repro.pde",
            "repro.faults", "repro.resilience",
            "repro.datamining", "repro.queries", "repro.core", "repro.workloads",
            "repro.wms",
        ]:
            mod = importlib.import_module(module)
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        undocumented.append(f"{module}.{name}")
        assert undocumented == []


class TestBrokerFederationAPI:
    def test_home_of_resolves_by_assignment(self):
        from repro.discovery import (
            DistributedBrokerNetwork,
            ReplicatedRegistry,
            SemanticMatcher,
            build_service_ontology,
        )

        matcher = SemanticMatcher(build_service_ontology())
        regs = [ReplicatedRegistry(matcher, name=f"b{i}") for i in range(3)]
        net = DistributedBrokerNetwork(regs)
        # assignment: host nodes hash onto brokers; wired side -> b0
        assign = lambda host: f"b{host % 3}" if host is not None else "b0"
        assert net.home_of(7, assign).name == "b1"
        assert net.home_of(None, assign).name == "b0"
