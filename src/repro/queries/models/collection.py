"""Convergecast costing over the subtree induced by a target set.

All base-station-rooted plans collect from the *targeted* sensors only;
non-target nodes on the paths still relay.  These helpers compute exact
lossless costs over the induced subtree (targets plus their tree paths to
the base station).

Every piece here is a pure function of the topology and its other
arguments, and the Decision Maker asks for the same pieces for every
plan of every query (and every epoch of a continuous one).  So each is
computed once per topology version (:meth:`Topology.memo`) and shared:
results come back read-only (a read-only ``per_node_energy``, frozenset
``reached``/``participating``; the tree is shared as is and must not be
mutated).  Keys hold the radio and energy model because
:class:`~repro.faults.LinkDegradation` swaps the radio without bumping
the version.  ``tests/queries/oracle.py`` keeps the per-call forms.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.network.routing.base import CollectionCost, DisseminationResult
from repro.network.routing.flooding import Flooding
from repro.network.routing.tree import AggregationTree
from repro.sensors.deployment import SensorDeployment


def read_only(values: np.ndarray) -> np.ndarray:
    """``values`` with writes disabled (it is shared through the memo)."""
    values.flags.writeable = False
    return values


def build_tree(deployment: SensorDeployment) -> AggregationTree:
    """The current min-hop aggregation tree rooted at the base station."""
    topo = deployment.topology
    root = deployment.base_station_id
    return topo.memo(("tree", root), AggregationTree, topo, root)


def induced_nodes(tree: AggregationTree, targets: list[int]) -> set[int]:
    """Targets reachable in ``tree`` plus every node on their root paths."""
    nodes: set[int] = set()
    for t in targets:
        if t in tree.parent:
            nodes.update(tree.path_to_root(t))
    return nodes


def flood_cost(deployment: SensorDeployment, bits: float) -> DisseminationResult:
    """Cost of flooding the query from the base station."""
    key = ("flood", deployment.base_station_id, bits, deployment.radio,
           deployment.energy_model)
    return deployment.topology.memo(key, _disseminate, deployment, bits)


def _disseminate(deployment: SensorDeployment, bits: float) -> DisseminationResult:
    flood = Flooding(
        deployment.topology, deployment.radio, deployment.energy_model
    ).disseminate(deployment.base_station_id, bits)
    return dataclasses.replace(flood, reached=frozenset(flood.reached),
                               per_node_energy=read_only(flood.per_node_energy))


def aggregated_collection(
    deployment: SensorDeployment,
    targets: list[int],
    bits_partial: float,
    ops_per_merge: float = 10.0,
) -> CollectionCost:
    """TAG convergecast over the induced subtree: one partial per node."""
    key = ("aggregated", tuple(targets), bits_partial, ops_per_merge,
           deployment.base_station_id, deployment.radio, deployment.energy_model)
    return deployment.topology.memo(key, _aggregated_collection, deployment,
                                    targets, bits_partial, ops_per_merge)


def _aggregated_collection(
    deployment: SensorDeployment,
    targets: list[int],
    bits_partial: float,
    ops_per_merge: float,
) -> CollectionCost:
    tree = build_tree(deployment)
    nodes = induced_nodes(tree, targets)
    topo = deployment.topology
    em = deployment.energy_model
    per_node = np.zeros(topo.n_nodes)
    messages = 0
    bits_total = 0.0
    max_depth = 0
    for node in nodes:
        if node == tree.root:
            continue
        par = tree.parent[node]
        per_node[node] += em.tx_cost(bits_partial, topo.distance(node, par))
        per_node[par] += em.rx_cost(bits_partial) + em.cpu_cost(ops_per_merge)
        messages += 1
        bits_total += bits_partial
        max_depth = max(max_depth, tree.depth_of[node])
    latency = max_depth * deployment.radio.hop_time(bits_partial)
    reached = frozenset(t for t in targets if t in tree.parent)
    return CollectionCost(read_only(per_node), latency, messages, bits_total,
                          reached | {tree.root})


def raw_collection(
    deployment: SensorDeployment,
    targets: list[int],
    bits_reading: float,
) -> CollectionCost:
    """Unaggregated convergecast: every target's reading forwarded whole."""
    key = ("raw", tuple(targets), bits_reading, deployment.base_station_id,
           deployment.radio, deployment.energy_model)
    return deployment.topology.memo(key, _raw_collection, deployment, targets,
                                    bits_reading)


def _raw_collection(
    deployment: SensorDeployment,
    targets: list[int],
    bits_reading: float,
) -> CollectionCost:
    tree = build_tree(deployment)
    nodes = induced_nodes(tree, targets)
    target_set = frozenset(t for t in targets if t in tree.parent)
    topo = deployment.topology
    em = deployment.energy_model

    # readings carried by each induced node = targets in its induced subtree
    carry = {n: (1 if n in target_set else 0) for n in nodes}
    for node in sorted(nodes, key=lambda n: -tree.depth_of[n]):
        if node != tree.root:
            par = tree.parent[node]
            carry[par] = carry.get(par, 0) + carry[node]

    per_node = np.zeros(topo.n_nodes)
    messages = 0
    bits_total = 0.0
    max_depth = 0
    for node in nodes:
        if node == tree.root:
            continue
        count = carry[node]
        if count == 0:
            continue
        par = tree.parent[node]
        per_node[node] += count * em.tx_cost(bits_reading, topo.distance(node, par))
        per_node[par] += count * em.rx_cost(bits_reading)
        messages += count
        bits_total += count * bits_reading
        max_depth = max(max_depth, tree.depth_of[node])
    hop = deployment.radio.hop_time(bits_reading)
    n_readings = len(target_set)
    latency = (max(n_readings - 1, 0) + max(max_depth, 1 if n_readings else 0)) * hop
    return CollectionCost(read_only(per_node), latency, messages, bits_total,
                          target_set | {tree.root})


def mean_target_depth(deployment: SensorDeployment, targets: list[int]) -> float:
    """Average hop depth of reachable targets (for retransmission models)."""
    tree = build_tree(deployment)
    depths = [tree.depth_of[t] for t in targets if t in tree.parent]
    return float(np.mean(depths)) if depths else 0.0
