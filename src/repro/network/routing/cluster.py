"""LEACH-style cluster formation and two-tier collection.

"Cluster based models can enable the computation to be carried out in the
sensor network.  Sensors are divided into clusters and each cluster has a
cluster head.  Cluster heads aggregate information from the sensors in
individual clusters and send it to the base station." (§4)

Heads are chosen randomly with probability ``head_fraction`` (rotating
head duty is what LEACH does to spread energy); every other node joins its
nearest head.  Heads aggregate member readings and relay one partial each
to the sink over min-hop routes.
"""

from __future__ import annotations

import numpy as np

from repro.network.energy import RadioEnergyModel
from repro.network.radio import RadioModel
from repro.network.routing.base import CollectionCost
from repro.network.topology import Topology


class ClusterFormation:
    """One round of cluster formation over the living nodes.

    Parameters
    ----------
    head_fraction:
        Expected fraction of nodes elected head (LEACH's ``P``).
    sink:
        Node id of the base station; never elected head, never a member.
    """

    def __init__(
        self,
        topology: Topology,
        sink: int,
        rng: np.random.Generator,
        head_fraction: float = 0.1,
    ) -> None:
        if not 0.0 < head_fraction <= 1.0:
            raise ValueError("head_fraction must be in (0, 1]")
        self.topology = topology
        self.sink = sink
        self.rng = rng
        self.head_fraction = head_fraction
        self.heads: list[int] = []
        self.membership: dict[int, int] = {}
        self.form()

    def form(self) -> None:
        """(Re)elect heads and assign members; called once per round."""
        topo = self.topology
        candidates = [n for n in topo.alive_nodes() if n != self.sink]
        if not candidates:
            self.heads = []
            self.membership = {}
            return
        draws = self.rng.random(len(candidates))
        heads = [n for n, d in zip(candidates, draws) if d < self.head_fraction]
        if not heads:
            # LEACH guarantees at least one head by falling back to a
            # random pick when the Bernoulli draws all miss.
            heads = [candidates[int(self.rng.integers(len(candidates)))]]
        self.heads = sorted(heads)
        # one candidates × heads distance table; argmin keeps the first
        # (lowest-id) head on ties, and a head always leads its own cluster
        # even when another head sits on the same spot
        cand_pos = topo.positions[candidates]
        head_pos = topo.positions[self.heads]
        nearest = np.hypot(
            head_pos[:, 0] - cand_pos[:, 0, None],
            head_pos[:, 1] - cand_pos[:, 1, None],
        ).argmin(axis=1)
        head_set = set(self.heads)
        self.membership = {
            node: node if node in head_set else self.heads[i]
            for node, i in zip(candidates, nearest.tolist())
        }

    def members_of(self, head: int) -> list[int]:
        """Member node ids assigned to ``head`` (the head itself excluded)."""
        return sorted(n for n, h in self.membership.items() if h == head and n != head)

    # ------------------------------------------------------------------
    def aggregated_collection(
        self,
        bits_reading: float,
        bits_partial: float,
        radio: RadioModel,
        energy_model: RadioEnergyModel,
        ops_per_merge: float = 10.0,
    ) -> CollectionCost:
        """Cost of one cluster round: members → heads → sink.

        Members transmit one reading directly to their head (single hop at
        the member→head distance, the LEACH assumption); each head merges
        and relays one ``bits_partial`` packet to the sink along the
        min-hop route through the topology.
        """
        topo = self.topology
        per_node = np.zeros(topo.n_nodes)
        messages = 0
        bits_total = 0.0

        for node, head in self.membership.items():
            if node == head:
                continue
            dist = topo.distance(node, head)
            per_node[node] += energy_model.tx_cost(bits_reading, dist)
            per_node[head] += energy_model.rx_cost(bits_reading)
            per_node[head] += energy_model.cpu_cost(ops_per_merge)
            messages += 1
            bits_total += bits_reading

        unreachable: set[int] = set()
        max_head_hops = 0
        for head in self.heads:
            path = topo.shortest_path(head, self.sink)
            if path is None:
                unreachable.add(head)
                unreachable.update(self.members_of(head))
                continue
            for a, b in zip(path, path[1:]):
                per_node[a] += energy_model.tx_cost(bits_partial, topo.distance(a, b))
                per_node[b] += energy_model.rx_cost(bits_partial)
                messages += 1
                bits_total += bits_partial
            max_head_hops = max(max_head_hops, len(path) - 1)

        # member phase happens in parallel across clusters; head relays too
        latency = radio.hop_time(bits_reading) + max_head_hops * radio.hop_time(bits_partial)
        participating = (set(self.membership) | {self.sink}) - unreachable
        return CollectionCost(
            per_node_energy=per_node,
            latency_s=latency,
            messages=messages,
            bits_total=bits_total,
            participating=participating,
        )
