"""Shared fixtures for composition tests."""

import pytest

from repro.agents import AgentPlatform
from repro.composition import (
    Binder,
    CompositionManager,
    HTNPlanner,
    ServiceProviderAgent,
    build_pervasive_domain,
)
from repro.discovery import (
    BrokerAgent,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceDescription,
    build_service_ontology,
)
from repro.resilience import BreakerBoard
from repro.simkernel import RandomStreams, Simulator


class CompositionEnv:
    """A wired-side composition testbed: platform, registry, providers."""

    def __init__(self, mode="centralized", timeout_s=10.0, max_retries=2, breaker_kwargs=None):
        self.sim = Simulator()
        self.streams = RandomStreams(42)
        self.platform = AgentPlatform(self.sim)
        self.registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
        self.binder = Binder(self.registry)
        self.breakers = (
            BreakerBoard(self.sim, **breaker_kwargs) if breaker_kwargs is not None else None
        )
        self.manager = CompositionManager(
            "mgr", self.sim, self.binder, mode=mode, timeout_s=timeout_s,
            max_retries=max_retries, breakers=self.breakers,
        )
        self.platform.register(self.manager)
        self.broker = BrokerAgent("broker", self.registry)
        self.platform.register(self.broker)
        self.planner = HTNPlanner(build_pervasive_domain())
        self.providers = {}

    def add_provider(self, name, category, fail_prob=0.0, ops=1e6, rate=1e8, executor=None, **attrs):
        desc = ServiceDescription(
            name=f"svc-{name}",
            category=category,
            attributes=attrs,
            ops=ops,
        )
        provider = ServiceProviderAgent(
            name,
            desc,
            self.sim,
            compute_rate=rate,
            executor=executor,
            fail_prob=fail_prob,
            rng=self.streams.get(f"fail-{name}"),
        )
        self.platform.register(provider)
        self.registry.advertise(desc)
        self.providers[name] = provider
        return provider

    def add_stream_mining_providers(self, fail_prob=0.0):
        self.add_provider("dt1", "DecisionTreeService", fail_prob=fail_prob)
        self.add_provider("dt2", "DecisionTreeService", fail_prob=fail_prob)
        self.add_provider("fft1", "FourierSpectrumService", fail_prob=fail_prob)
        self.add_provider("fft2", "FourierSpectrumService", fail_prob=fail_prob)
        self.add_provider("comb", "EnsembleCombinerService", fail_prob=fail_prob)


@pytest.fixture
def env_factory():
    return CompositionEnv
