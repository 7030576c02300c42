"""Ablation A5 -- centralized vs distributed coordination on wireless hosts.

"The problem can be tackled by using centralized broker-based
architectures for service composition in purely wired environments.
However, in pervasive grid systems where the computation platforms range
from high end super computing workstations to low-end minute nano
sensors, centralized architectures are often not the most appropriate."

Protocol: the same 6-task pipeline executes over wireless provider hosts
(clustered "in the vicinity" of each other, far from the base station)
under both coordination modes, across payload sizes.  Centralized
coordination hauls every intermediate result to the base station and
back; distributed coordination lets data flow provider-to-provider (one
hop inside the cluster).  Expected shape: distributed costs a multiple
less radio energy and latency at every payload size -- asymptotically
the via-coordinator / provider-to-provider hop-count ratio, plus a
control-plane saving (role cards vs full invokes) that dominates at
small payloads.
"""

import numpy as np

from repro.agents import AgentPlatform, NetworkDeputy
from repro.composition import Binder, CompositionManager, HTNPlanner, ServiceProviderAgent, build_pervasive_domain
from repro.discovery import ReplicatedRegistry, SemanticMatcher, ServiceDescription, build_service_ontology
from repro.network import RadioEnergyModel, RadioModel, Topology, WirelessNetwork
from repro.network.mobility import grid_positions
from repro.simkernel import RandomStreams, Simulator

N_NODES = 16
AREA = 50.0
N_RUNS = 6
PAYLOAD_BITS = (1024.0, 8192.0, 32768.0)


def run_config(mode: str, payload_bits: float, seed=3):
    sim = Simulator()
    streams = RandomStreams(seed)
    positions = np.vstack([grid_positions(N_NODES, AREA), [[AREA / 2, -3.0]]])
    topo = Topology(positions, range_m=22.0)
    radio = RadioModel(bandwidth_bps=1e6, latency_s=0.02, range_m=22.0)
    net = WirelessNetwork(sim, topo, radio, RadioEnergyModel(),
                          rng=streams.get("loss"))
    base = N_NODES
    platform = AgentPlatform(sim)
    registry = ReplicatedRegistry(SemanticMatcher(build_service_ontology()))
    manager = CompositionManager("mgr", sim, Binder(registry), mode=mode,
                                 timeout_s=60.0)
    platform.register(manager, NetworkDeputy(manager, net, host_node=base))

    spec = [("DecisionTreeService", 2), ("FourierSpectrumService", 2),
            ("EnsembleCombinerService", 1)]
    # providers cluster "in the vicinity" of each other (§3's short-lived
    # nearby services) in the corner of the site farthest from the base
    # station: provider-to-provider data is 1 hop, via-coordinator is 6+
    provider_hosts = [15, 14, 11, 10, 13]
    idx = 0
    for category, count in spec:
        for i in range(count):
            name = f"{category.lower()}-{i}"
            host = provider_hosts[idx]
            idx += 1
            desc = ServiceDescription(name=f"svc-{name}", category=category,
                                      host_node=host, ops=1e6,
                                      input_bits=payload_bits,
                                      output_bits=payload_bits)
            agent = ServiceProviderAgent(name, desc, sim)
            platform.register(agent, NetworkDeputy(agent, net, host_node=host))
            registry.advertise(desc)

    planner = HTNPlanner(build_pervasive_domain())
    latencies = []
    for _ in range(N_RUNS):
        graph = planner.plan("analyze-stream", {"n_partitions": 2})
        got = []
        manager.execute(graph, got.append)
        deadline = sim.now + 200.0
        while not got and sim.now < deadline:
            if not sim.step():
                break
        assert got and got[0].success, f"composition failed in {mode}"
        latencies.append(got[0].latency_s)
        sim.run(until=sim.now + 5.0)
    energy = net.monitor.counter("net.energy_j").value
    return {
        "mean_latency": float(np.mean(latencies)),
        "energy_j": energy / N_RUNS,
        "bits": net.monitor.counter("net.energy_j").increments,
    }


def run_experiment():
    return {
        (mode, bits): run_config(mode, bits)
        for mode in ("centralized", "distributed")
        for bits in PAYLOAD_BITS
    }


def test_a5_coordination_ablation(benchmark, table, once):
    stats = once(benchmark, run_experiment)
    rows = []
    for (mode, bits), s in sorted(stats.items()):
        rows.append([mode, int(bits), s["mean_latency"], s["energy_j"] * 1e3])
    table(
        f"A5: coordination mode over wireless hosts ({N_RUNS} compositions each)",
        ["mode", "payload bits", "mean latency (s)", "radio mJ/run"],
        rows,
        fmt="{:>18}",
    )

    for bits in PAYLOAD_BITS:
        c = stats[("centralized", bits)]
        d = stats[("distributed", bits)]
        # distributed never hauls data through the coordinator: a multiple
        # cheaper and faster at every payload size
        assert d["energy_j"] < c["energy_j"] / 2.0
        assert d["mean_latency"] < c["mean_latency"]
    # the asymptotic data-plane advantage is the hop-count ratio between
    # via-coordinator and provider-to-provider routes (here ~2.8x); the
    # control-plane saving pushes the small-payload ratio even higher
    gap = {
        bits: stats[("centralized", bits)]["energy_j"] / stats[("distributed", bits)]["energy_j"]
        for bits in PAYLOAD_BITS
    }
    assert gap[PAYLOAD_BITS[0]] >= gap[PAYLOAD_BITS[-1]] >= 2.0
