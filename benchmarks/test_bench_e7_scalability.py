"""E7 -- scalability with the number of services.

"Composition architectures should scale with the increasing number of
services in smartdust type environments."

Protocol: service populations from 50 to 800; we measure (a) wall-clock
semantic search latency per request, (b) distributed-broker search cost
when the same population is spread over 4 peered brokers, and (c) the
virtual-time cost of binding + executing a 6-task composition.  Expected
shape: search grows linearly in population (it is a scan + rank), the
federation overhead stays a small constant factor, and composition
latency is population-independent (binding picks from the ranked list).
"""

import time

import numpy as np

from repro.agents import AgentPlatform
from repro.composition import Binder, CompositionManager, HTNPlanner, ServiceProviderAgent, build_pervasive_domain
from repro.discovery import (
    DistributedBrokerNetwork,
    Preference,
    ReplicatedRegistry,
    SemanticMatcher,
    ServiceRequest,
    build_service_ontology,
)
from repro.simkernel import RandomStreams, Simulator
from repro.workloads import ServicePopulation

SIZES = (50, 100, 200, 400, 800)
N_SEARCHES = 30


def search_latency(n_services: int, seed=41):
    rng = np.random.default_rng(seed)
    services = [g.description for g in ServicePopulation(rng).generate(n_services)]
    ontology = build_service_ontology()
    registry = ReplicatedRegistry(SemanticMatcher(ontology))
    for d in services:
        registry.advertise(d)

    request = ServiceRequest(
        category="PrinterService",
        preferences=(Preference("queue_length", "minimize"),),
    )
    t0 = time.perf_counter()
    for _ in range(N_SEARCHES):
        registry.search(request, top_k=10)
    single = (time.perf_counter() - t0) / N_SEARCHES

    # federation: same population over 4 peered brokers
    registries = [ReplicatedRegistry(SemanticMatcher(ontology), name=f"b{i}") for i in range(4)]
    for i, d in enumerate(services):
        registries[i % 4].advertise(d)
    net = DistributedBrokerNetwork(registries)
    t0 = time.perf_counter()
    for _ in range(N_SEARCHES):
        net.search(request, home="b0", max_hops=1, top_k=10)
    federated = (time.perf_counter() - t0) / N_SEARCHES
    return single, federated


def composition_latency(n_services: int, seed=43):
    sim = Simulator()
    streams = RandomStreams(seed)
    platform = AgentPlatform(sim)
    registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
    # background population (noise the binder must rank through)
    for g in ServicePopulation(streams.get("population")).generate(n_services):
        registry.advertise(g.description)
    # actual providers for the pipeline
    from repro.discovery import ServiceDescription

    for i, category in enumerate(
        ["DecisionTreeService", "DecisionTreeService", "FourierSpectrumService",
         "FourierSpectrumService", "EnsembleCombinerService"]
    ):
        name = f"p{i}"
        desc = ServiceDescription(name=f"real-{name}", category=category, ops=1e6,
                                  attributes={"queue_length": 0})
        platform.register(ServiceProviderAgent(name, desc, sim))
        registry.advertise(desc)

    manager = CompositionManager("mgr", sim, Binder(registry), mode="distributed")
    platform.register(manager)
    planner = HTNPlanner(build_pervasive_domain())
    graph = planner.plan("analyze-stream", {"n_partitions": 2})
    got = []
    t0 = time.perf_counter()
    manager.execute(graph, got.append)
    sim.run()
    wall = time.perf_counter() - t0
    assert got and got[0].success
    return got[0].latency_s, wall


def run_sweep():
    rows = []
    for n in SIZES:
        single, federated = search_latency(n)
        comp_virtual, comp_wall = composition_latency(n)
        rows.append([n, single * 1e3, federated * 1e3, comp_virtual, comp_wall * 1e3])
    return rows


def test_e7_scalability(benchmark, table, once, record):
    rows = once(benchmark, run_sweep)
    table(
        "E7: scalability with service population",
        ["services", "search (ms)", "fed. search (ms)", "comp. virtual (s)", "comp. wall (ms)"],
        rows,
        fmt="{:>18}",
    )
    search = {r[0]: r[1] for r in rows}
    fed = {r[0]: r[2] for r in rows}
    comp = {r[0]: r[3] for r in rows}
    # search grows sub-quadratically: 16x population < 40x latency
    assert search[800] < 40 * max(search[50], 1e-3)
    # federation costs less than 4x a single registry scan of everything
    assert fed[800] < 6 * search[800] + 1.0
    # composition virtual latency is population-independent
    assert abs(comp[800] - comp[50]) / comp[50] < 0.2
    # absolute sanity: sub-second searches at the largest size
    assert search[800] < 1000.0

    # persist the scalability trajectory: virtual-time metrics are
    # deterministic; wall-clock ones are record-only (machine-noisy,
    # kept out of the committed baseline so they are never gated)
    record("E7", "composition_virtual_s", comp[800], unit="s",
           direction="lower", seed=43, n_services=800)
    record("E7", "search_ms[800]", search[800], unit="ms",
           direction="either", seed=41, n_searches=N_SEARCHES)
    record("E7", "federated_search_ms[800]", fed[800], unit="ms",
           direction="either", seed=41, n_searches=N_SEARCHES)
    record("E7", "search_scaling_800_over_50", search[800] / max(search[50], 1e-9),
           unit="x", direction="either", seed=41)
    comp_wall_ms = {r[0]: r[4] for r in rows}
    record("E7", "wall_clock_per_sim_second",
           (comp_wall_ms[800] * 1e-3) / comp[800], unit="s/s",
           direction="either", seed=43, n_services=800)
