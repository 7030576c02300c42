"""Shared result types for routing protocols."""

from __future__ import annotations

import dataclasses
import typing

import numpy as np


@dataclasses.dataclass
class DisseminationResult:
    """Outcome of pushing a message from a root to the whole network.

    Attributes
    ----------
    reached:
        Set of node ids that received the message (root included).
    messages:
        Number of radio broadcasts performed.
    energy_j:
        Total radio energy across all nodes.
    per_node_energy:
        Energy charged to each node id (length = topology.n_nodes).
    latency_s:
        Time from start until the last node received the message.
    """

    reached: typing.AbstractSet[int]
    messages: int
    energy_j: float
    per_node_energy: np.ndarray
    latency_s: float

    @property
    def coverage(self) -> float:
        """Fraction of intended nodes reached (filled in by callers)."""
        return float(len(self.reached))


@dataclasses.dataclass
class CollectionCost:
    """Cost of one convergecast round (all readings to the sink).

    Attributes
    ----------
    per_node_energy:
        Radio+CPU energy charged to each node id for this round.
    latency_s:
        Time until the sink holds the (aggregated or raw) result.
    messages:
        Point-to-point transmissions performed.
    bits_total:
        Total bits put on the air.
    participating:
        Node ids whose readings are represented at the sink.
    """

    per_node_energy: np.ndarray
    latency_s: float
    messages: int
    bits_total: float
    participating: typing.AbstractSet[int]

    @property
    def energy_j(self) -> float:
        """Total energy across all nodes."""
        return float(self.per_node_energy.sum())
