"""Per-call reference forms of the query path's pure cost pieces.

Production serves each piece from the topology's per-version memo
(:meth:`repro.network.topology.Topology.memo`).  These are the same
pieces recomputed from scratch on every call, as the query path did
before the memo existed: a fresh ``Flooding`` run, a fresh
``AggregationTree``, a fresh convergecast walk, a fresh region grouping
and a per-sensor WHERE evaluation over the living sensors.  They share
no memo state, so agreement after every topology, radio and battery
change is evidence that every memo key holds every input its piece reads
and that every entry dies with the version.
"""

import numpy as np

from repro.network.routing.base import CollectionCost, DisseminationResult
from repro.network.routing.flooding import Flooding
from repro.network.routing.tree import AggregationTree
from repro.queries.models.base import READING_BITS
from repro.queries.models.collection import induced_nodes
from repro.queries.targets import sensor_attributes


def build_tree(deployment):
    """The current min-hop aggregation tree rooted at the base station."""
    return AggregationTree(deployment.topology, deployment.base_station_id)


def flood_cost(deployment, bits) -> DisseminationResult:
    """Cost of flooding the query from the base station."""
    return Flooding(
        deployment.topology, deployment.radio, deployment.energy_model
    ).disseminate(deployment.base_station_id, bits)


def aggregated_collection(deployment, targets, bits_partial, ops_per_merge=10.0) -> CollectionCost:
    """TAG convergecast over the induced subtree: one partial per node."""
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
    reached = {t for t in targets if t in tree.parent}
    return CollectionCost(per_node, latency, messages, bits_total, reached | {tree.root})


def raw_collection(deployment, targets, bits_reading) -> CollectionCost:
    """Unaggregated convergecast: every target's reading forwarded whole."""
    tree = build_tree(deployment)
    nodes = induced_nodes(tree, targets)
    target_set = {t for t in targets if t in tree.parent}
    topo = deployment.topology
    em = deployment.energy_model

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
    return CollectionCost(per_node, latency, messages, bits_total, target_set | {tree.root})


def region_member_phase(model, ctx, targets):
    """``RegionAverageModel``'s member phase: ``(groups, reps, per_node,
    messages)``, with groups as region -> list of targets."""
    groups = {}
    for t in targets:
        pos = ctx.deployment.topology.position_of(t)
        groups.setdefault(model._region_of(ctx, pos), []).append(t)
    reps = [min(members) for members in groups.values()]
    topo = ctx.deployment.topology
    em = ctx.deployment.energy_model
    per_node = np.zeros(topo.n_nodes)
    member_msgs = 0
    for members in groups.values():
        rep = min(members)
        for m in members:
            if m == rep:
                continue
            d = topo.distance(m, rep)
            per_node[m] += em.tx_cost(READING_BITS, d)
            per_node[rep] += em.rx_cost(READING_BITS) + em.cpu_cost(10.0)
            member_msgs += 1
    return groups, reps, per_node, member_msgs


def select_targets(deployment, query, rooms_per_side=3):
    """Living sensors satisfying every static WHERE predicate."""
    static_attrs = {"sensor_id", "room", "x", "y"}
    preds = [p for p in query.where if p.attribute in static_attrs]
    out = []
    for sid in deployment.alive_sensor_ids():
        attrs = sensor_attributes(deployment, sid, rooms_per_side)
        if all(p.holds(attrs) for p in preds):
            out.append(sid)
    return out
