"""Routing techniques for the sensor substrate.

Section 4 of the paper names the routing choices its estimates must cover:
"A particular network may use flooding technique to route data, while
another may use gossiping", plus the in-network aggregation structures
(cluster heads and aggregation trees) of TAG/LEACH.  This package
implements all four:

* :mod:`~repro.network.routing.flooding` -- blind rebroadcast dissemination.
* :mod:`~repro.network.routing.gossip` -- probabilistic forwarding.
* :mod:`~repro.network.routing.tree` -- min-hop aggregation trees, whose
  raw and in-network aggregated convergecasts
  :mod:`repro.queries.models.collection` costs.
* :mod:`~repro.network.routing.cluster` -- LEACH-style cluster-head
  formation and two-tier collection.

Each protocol exposes both an *event-driven* execution (messages through
the :class:`~repro.network.network.WirelessNetwork`) and an *analytic*
cost function (per-node energy vector + latency) used by the dynamic
partitioner's estimators; tests assert the two agree.
"""

from repro.network.routing.base import CollectionCost, DisseminationResult
from repro.network.routing.flooding import Flooding
from repro.network.routing.gossip import Gossip
from repro.network.routing.tree import AggregationTree
from repro.network.routing.cluster import ClusterFormation

__all__ = [
    "CollectionCost",
    "DisseminationResult",
    "Flooding",
    "Gossip",
    "AggregationTree",
    "ClusterFormation",
]
