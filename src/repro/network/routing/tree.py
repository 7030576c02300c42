"""Aggregation trees (TAG-style convergecast).

"Data centric routing techniques can be used to form aggregation trees in
sensor networks.  Data would be routed and aggregated through the
aggregation trees." (§4)

:class:`AggregationTree` is a min-hop spanning tree rooted at the sink.
Convergecasts over it -- aggregated (TAG: one partial per node) and raw
(every reading forwarded whole) -- are costed over the subtree a query's
targets induce, by :mod:`repro.queries.models.collection`.
"""

from __future__ import annotations

import collections

from repro.network.topology import Topology


class AggregationTree:
    """A min-hop spanning tree over the living nodes reachable from ``root``.

    The tree is a snapshot: rebuild after topology changes (cheap -- one
    BFS).  ``parent[root] == root``.
    """

    def __init__(self, topology: Topology, root: int) -> None:
        self.topology = topology
        self.root = root
        self.parent = topology.bfs_tree(root)
        self.children: dict[int, list[int]] = collections.defaultdict(list)
        for child, par in self.parent.items():
            if child != root:
                self.children[par].append(child)
        for kids in self.children.values():
            kids.sort()
        self.depth_of: dict[int, int] = topology.hop_counts_from(root)
        # restrict to tree members (hop counts cover the same component)
        self.depth_of = {n: d for n, d in self.depth_of.items() if n in self.parent}

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> list[int]:
        """All tree members (root included), sorted."""
        return sorted(self.parent)

    @property
    def depth(self) -> int:
        """Height of the tree (0 for a root-only tree)."""
        return max(self.depth_of.values()) if self.depth_of else 0

    def path_to_root(self, node: int) -> list[int]:
        """Tree path from ``node`` up to the root, inclusive."""
        path = [node]
        while path[-1] != self.root:
            path.append(self.parent[path[-1]])
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AggregationTree(root={self.root}, nodes={len(self.parent)}, depth={self.depth})"
