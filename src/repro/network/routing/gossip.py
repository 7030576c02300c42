"""Gossip (probabilistic) dissemination.

Each node that hears the message forwards it to ``fanout`` randomly chosen
neighbors with probability ``forward_prob``.  Cheaper than flooding but
only probabilistically complete -- the coverage/energy tradeoff the
partitioner's estimates must account for ("A particular network may use
flooding ... while another may use gossiping").
"""

from __future__ import annotations

import collections

import numpy as np

from repro import checks
from repro.network.energy import RadioEnergyModel
from repro.network.radio import RadioModel
from repro.network.routing.base import DisseminationResult
from repro.network.topology import Topology


class Gossip:
    """Round-based gossip over a topology snapshot.

    Parameters
    ----------
    forward_prob:
        Probability a hearing node forwards at all.
    fanout:
        Number of distinct random neighbors a forwarding node sends to
        (unicast, not broadcast -- classic push gossip).
    """

    def __init__(
        self,
        topology: Topology,
        radio: RadioModel,
        energy_model: RadioEnergyModel,
        rng: np.random.Generator,
        forward_prob: float = 0.8,
        fanout: int = 2,
    ) -> None:
        self.topology = topology
        self.radio = radio
        self.energy_model = energy_model
        self.rng = rng
        self.forward_prob = checks.fraction("forward_prob", forward_prob, open_low=True)
        self.fanout = checks.count("fanout", fanout, 1)

    def disseminate(self, root: int, bits: float) -> DisseminationResult:
        """Run one gossip cascade; stochastic (draws from ``rng``)."""
        topo = self.topology
        per_node = np.zeros(topo.n_nodes)
        rx = self.energy_model.rx_cost(bits)
        hop_time = self.radio.hop_time(bits)

        reached = {root}
        frontier = collections.deque([(root, 0)])
        messages = 0
        max_round = 0
        while frontier:
            node, rnd = frontier.popleft()
            if self.rng.random() > self.forward_prob and node != root:
                continue
            neighbors = topo.neighbors(node)
            if not neighbors:
                continue
            k = min(self.fanout, len(neighbors))
            picks = self.rng.choice(len(neighbors), size=k, replace=False)
            for pick in picks:
                target = neighbors[int(pick)]
                dist = topo.distance(node, target)
                per_node[node] += self.energy_model.tx_cost(bits, dist)
                per_node[target] += rx
                messages += 1
                if target not in reached:
                    reached.add(target)
                    frontier.append((target, rnd + 1))
                    max_round = max(max_round, rnd + 1)

        return DisseminationResult(
            reached=reached,
            messages=messages,
            energy_j=float(per_node.sum()),
            per_node_energy=per_node,
            latency_s=max_round * hop_time,
        )
