"""Dense reference topology: the oracle the production ``Topology`` is
checked against.

:class:`DenseTopology` mirrors :class:`repro.network.topology.Topology`'s
mutators (``move``, ``move_all``, ``kill``, ``revive``, ``block_links``,
``unblock_links``) but keeps no index and no cache: every query rebuilds
the ``(n, n)`` adjacency from scratch with
:func:`repro.network.geometry.neighbors_within`, masks dead nodes and
blocked links, and answers routes with a plain lowest-id-first BFS.  It
shares nothing with the grid hash except the ``np.hypot`` distance
comparison, so agreement on every query is evidence that the index, the
per-generation neighbor cache and the route cache are exact.

:func:`leach_form` is one LEACH formation round as a per-node loop: the
reference for :meth:`repro.network.routing.ClusterFormation.form`, which
assigns every member at once from a members × heads distance table.
"""

import collections

import numpy as np

from repro.network.geometry import neighbors_within


class DenseTopology:
    """Unit-disc topology recomputed wholesale on every query."""

    def __init__(self, positions, range_m):
        self.positions = np.array(positions, dtype=np.float64)
        self.range_m = float(range_m)
        self.alive = np.ones(len(self.positions), dtype=bool)
        #: symmetric ``(lo, hi)`` pair -> how many times it is blocked
        self.blocked = collections.Counter()

    # -- mutators (same contract as Topology) ---------------------------
    def move(self, node, position):
        self.positions[node] = position

    def move_all(self, positions):
        self.positions[:] = positions

    def kill(self, node):
        self.alive[node] = False

    def revive(self, node):
        self.alive[node] = True

    def block_links(self, group_a, group_b):
        for a in group_a:
            for b in group_b:
                if a != b:
                    self.blocked[(min(a, b), max(a, b))] += 1

    def unblock_links(self, group_a, group_b):
        for a in group_a:
            for b in group_b:
                key = (min(a, b), max(a, b))
                if a != b and self.blocked[key]:
                    self.blocked[key] -= 1
                    if not self.blocked[key]:
                        del self.blocked[key]

    # -- queries ---------------------------------------------------------
    def adjacency(self):
        """Boolean ``(n, n)`` adjacency: in range, both alive, not blocked."""
        adj = neighbors_within(self.positions, self.range_m)
        adj &= self.alive[:, None]
        adj &= self.alive[None, :]
        for a, b in self.blocked:
            adj[a, b] = adj[b, a] = False
        return adj

    def bfs_tree(self, root):
        """Parent map of the BFS tree from ``root`` (root maps to itself),
        expanding neighbors in ascending id order."""
        adj = self.adjacency()
        parent = {root: root}
        queue = collections.deque([root])
        while queue:
            u = queue.popleft()
            for v in np.flatnonzero(adj[u]):
                v = int(v)
                if v not in parent:
                    parent[v] = u
                    queue.append(v)
        return parent

    def hop_counts_from(self, root):
        parent = self.bfs_tree(root)
        hops = {}
        for node in parent:
            steps, cursor = 0, node
            while cursor != root:
                cursor = parent[cursor]
                steps += 1
            hops[node] = steps
        return hops

    def shortest_path(self, src, dst):
        if src == dst:
            return [src]
        if not (self.alive[src] and self.alive[dst]):
            return None
        parent = self.bfs_tree(src)
        if dst not in parent:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        return path[::-1]

    def is_connected(self, among=None):
        nodes = list(among) if among is not None else [
            int(i) for i in np.flatnonzero(self.alive)]
        if len(nodes) <= 1:
            return True
        reached = self.bfs_tree(nodes[0])
        return all(n in reached for n in nodes)


def leach_form(topology, sink, rng, head_fraction):
    """``(heads, membership)`` of one round, each node's nearest head
    found on its own; draws from ``rng`` exactly as the production round."""
    candidates = [n for n in topology.alive_nodes() if n != sink]
    if not candidates:
        return [], {}
    draws = rng.random(len(candidates))
    heads = [n for n, d in zip(candidates, draws) if d < head_fraction]
    if not heads:
        heads = [candidates[int(rng.integers(len(candidates)))]]
    heads = sorted(heads)
    head_pos = topology.positions[heads]
    membership = {}
    for node in candidates:
        if node in heads:
            membership[node] = node
            continue
        delta = head_pos - topology.positions[node][None, :]
        dists = np.hypot(delta[:, 0], delta[:, 1])
        membership[node] = heads[int(np.argmin(dists))]
    return heads, membership
