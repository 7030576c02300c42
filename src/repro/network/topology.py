"""Connectivity graph over node positions.

:class:`Topology` maintains the unit-disc adjacency over the current node
positions and answers the graph queries the routing protocols need
(neighbors, shortest paths, BFS trees, connectivity).  Neighbor queries
go through a :class:`~repro.network.spatial.GridHashIndex` (cell size =
radio range): a query costs O(local density), a ``move``/``move_all``
re-buckets only the nodes whose cell changed, and ``kill``/``revive``
touch no index state at all.  The same index serves a 49-node building
and a 100k-node swarm.  Neighbor lists are ascending, and every surviving
neighbor passed the same ``np.hypot`` comparison a dense ``(n, n)``
adjacency would make; ``tests/network/oracle.py`` rebuilds that dense
adjacency from scratch and the tests compare every query against it.

Neighbor lists are cached per *geometry*: only ``move``, ``move_all``,
``block_links`` and ``unblock_links`` drop them.  A list keeps dead
nodes and each read filters it by liveness, so ``kill``/``revive`` keep it.

Route cache
-----------
Graph queries are memoized behind the :attr:`Topology.version` generation
counter: ``kill``/``revive``/``move``/``move_all``/``block_links``/
``unblock_links`` (mobility epochs, battery deaths, partitions) bump the
counter, and the first query at a new generation discards every cached
route answer and the memo.  On an unchanged topology a
relayed hop therefore answers its route query from a dict lookup instead
of re-running BFS -- the dominant cost of E2/E3-style workloads, where
every epoch routes over the same aggregation tree.

Cached answers are bit-identical to uncached BFS: neighbor expansion
visits node ids in increasing order, so the parent map of a full BFS
agrees with the parent map of an early-stopped BFS on every node the
latter discovered, and path reconstruction from either yields the same
min-hop path.  Hit/miss/invalidation totals are kept on the topology
(:attr:`route_cache_hits` and friends);
:func:`repro.network.network.record_route_cache_metrics` folds them into
a :class:`~repro.simkernel.monitor.Monitor` under the canonical
``net.route_cache.*`` names.

Beside the route answers sits a memo of derived pieces
(:meth:`Topology.memo`): any pure function of the graph whose caller
names every other input in the key.  The query path keeps the
base-station flood, the aggregation tree, raw and aggregated
convergecast costs per target list, the region plan's member phase and
the static WHERE-clause match there
(:mod:`repro.queries.models.collection`,
:mod:`repro.queries.targets`).  Entries die with the version, at the
same check that drops the route answers; memo lookups are not route
queries, so they leave the hit/miss counters alone.
"""

from __future__ import annotations

import collections
import typing

import numpy as np

from repro import checks
from repro.network.geometry import as_point, as_positions, distances_from
from repro.network.spatial import GridHashIndex


class Topology:
    """Dynamic unit-disc topology.

    Parameters
    ----------
    positions:
        Initial ``(n, 2)`` node positions in metres; every coordinate
        must be finite.
    range_m:
        Communication radius of the unit-disc model.
    """

    def __init__(self, positions: np.ndarray, range_m: float) -> None:
        self._positions = as_positions(positions).copy()
        # an infinite range links every pair
        self.range_m = float(checks.positive("range_m", range_m, inf=True))
        self._alive = np.ones(len(self._positions), dtype=bool)
        #: Severed links: symmetric ``(lo, hi)`` id pair -> stack depth.
        #: A dict, not an (n, n) matrix, so partitions cost O(blocked
        #: pairs) memory at any population size.
        self._blocked: dict[tuple[int, int], int] = {}
        self._grid = GridHashIndex(self._positions, self.range_m)
        self._version = 0
        # neighbor lists, dead nodes kept: valid for one geometry
        self._geometry = 0
        self._nbr_cache: dict[int, np.ndarray] = {}
        self._nbr_cache_geometry = 0
        # route cache: all entries valid only for _cache_version == _version
        self._cache_version = 0
        self._path_cache: dict[tuple[int, int], list[int] | None] = {}
        self._parents_cache: dict[int, dict[int, int]] = {}
        self._hops_cache: dict[int, dict[int, int]] = {}
        self._dist_cache: dict[tuple[int, int], float] = {}
        # derived pieces (see memo), dropped with the route cache
        self._memo: dict[typing.Hashable, typing.Any] = {}
        #: Route queries (shortest path / BFS tree / hop counts) answered
        #: from the cache without running BFS.
        self.route_cache_hits = 0
        #: Route queries that ran BFS (and populated the cache).
        self.route_cache_misses = 0
        #: Times a topology change forced a non-empty cache to be discarded.
        self.route_cache_invalidations = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total number of nodes ever placed (dead ones included)."""
        return len(self._positions)

    @property
    def version(self) -> int:
        """Monotone counter bumped on every topology change."""
        return self._version

    @property
    def positions(self) -> np.ndarray:
        """Current positions (read-only view)."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    def position_of(self, node: int) -> np.ndarray:
        """Position of one node (copy)."""
        return self._positions[node].copy()

    def is_alive(self, node: int) -> bool:
        """False once :meth:`kill` has been called for the node."""
        return bool(self._alive[node])

    def alive_nodes(self) -> list[int]:
        """Ids of all living nodes."""
        return [int(i) for i in np.flatnonzero(self._alive)]

    def _check_node(self, node: int) -> None:
        """Raise before any state changes: a negative id would wrap."""
        if not 0 <= node < len(self._positions):
            raise IndexError(f"node {node} out of range for {len(self._positions)} nodes")

    def move(self, node: int, position: np.ndarray) -> None:
        """Set one node's position (a finite ``(x, y)`` pair)."""
        self._check_node(node)
        self._positions[node] = as_point(position)
        self._grid.move(node, self._positions[node])
        self._geometry += 1
        self._version += 1

    def move_all(self, positions: np.ndarray) -> None:
        """Replace all positions at once (bulk mobility step).

        Re-buckets only the nodes whose cell changed -- O(moved), not
        O(n^2)."""
        pos = as_positions(positions)
        if pos.shape != self._positions.shape:
            raise ValueError("positions shape mismatch")
        self._positions[:] = pos
        self._grid.move_all(self._positions)
        self._geometry += 1
        self._version += 1

    def kill(self, node: int) -> None:
        """Remove a node from the topology (battery death, destruction).

        The grid index and the neighbor lists are untouched (liveness
        filters at query time); cached routes invalidate -- reachability
        changed."""
        self._check_node(node)
        if self._alive[node]:
            self._alive[node] = False
            self._version += 1

    def revive(self, node: int) -> None:
        """Bring a node back (used by disconnection churn models)."""
        self._check_node(node)
        if not self._alive[node]:
            self._alive[node] = True
            self._version += 1

    @staticmethod
    def _pair(a: int, b: int) -> tuple[int, int]:
        return (a, b) if a <= b else (b, a)

    def block_links(self, group_a: typing.Iterable[int], group_b: typing.Iterable[int]) -> None:
        """Sever every link between two node groups (network partition).

        Nodes stay alive -- only cross-group edges disappear from the
        adjacency, symmetrically.  Blocks stack: a link is usable again
        only once :meth:`unblock_links` has been called as many times as
        it was blocked (independent overlapping partitions compose).
        """
        blocked = self._blocked
        group_b = [int(n) for n in group_b]
        for a in group_a:
            a = int(a)
            for b in group_b:
                if a == b:
                    continue
                key = self._pair(a, b)
                blocked[key] = blocked.get(key, 0) + 1
        self._geometry += 1
        self._version += 1

    def unblock_links(self, group_a: typing.Iterable[int], group_b: typing.Iterable[int]) -> None:
        """Restore links previously severed by :meth:`block_links`."""
        blocked = self._blocked
        group_b = [int(n) for n in group_b]
        for a in group_a:
            a = int(a)
            for b in group_b:
                if a == b:
                    continue
                key = self._pair(a, b)
                depth = blocked.get(key)
                if depth is not None:
                    if depth <= 1:
                        del blocked[key]
                    else:
                        blocked[key] = depth - 1
        self._geometry += 1
        self._version += 1

    def _route_cache(self) -> None:
        """Discard stale cached answers (lazy, on the next query)."""
        if self._cache_version != self._version:
            if self._path_cache or self._parents_cache or self._hops_cache or self._dist_cache:
                self.route_cache_invalidations += 1
                self._path_cache.clear()
                self._parents_cache.clear()
                self._hops_cache.clear()
                self._dist_cache.clear()
            self._memo.clear()
            self._cache_version = self._version

    def memo(self, key: typing.Hashable, build: typing.Callable[..., typing.Any], *args) -> typing.Any:
        """``build(*args)``, computed once per topology version.

        ``key`` must hold every input ``build`` reads apart from this
        topology's graph (radio, energy model, bits, target list ...):
        entries survive everything that does not bump :attr:`version`.
        The value is shared by every caller until the version changes,
        so ``build`` should return it read-only.
        """
        self._route_cache()
        memo = self._memo
        if key in memo:
            return memo[key]
        value = memo[key] = build(*args)
        return value

    @property
    def route_cache_stats(self) -> dict[str, int]:
        """Cumulative cache effectiveness: hits, misses, invalidations."""
        return {
            "hits": self.route_cache_hits,
            "misses": self.route_cache_misses,
            "invalidations": self.route_cache_invalidations,
        }

    # ------------------------------------------------------------------
    # adjacency & graph queries
    # ------------------------------------------------------------------
    def _neighbor_ids(self, node: int) -> np.ndarray:
        """Living neighbors of ``node``, ascending (cached per geometry)."""
        alive = self._alive
        if not alive[node]:
            return np.empty(0, dtype=np.intp)
        if self._nbr_cache_geometry != self._geometry:
            self._nbr_cache.clear()
            self._nbr_cache_geometry = self._geometry
        cached = self._nbr_cache.get(node)
        if cached is None:
            cached = self._grid_neighbor_ids(node)
            self._nbr_cache[node] = cached
        return cached[alive[cached]]

    def _grid_neighbor_ids(self, node: int) -> np.ndarray:
        ids = self._grid.candidates_near(node)
        if len(ids):
            delta = self._positions[ids] - self._positions[node]
            ids = ids[np.hypot(delta[:, 0], delta[:, 1]) <= self.range_m]
        if self._blocked and len(ids):
            blocked = self._blocked
            pair = self._pair
            ids = np.asarray([j for j in ids if pair(node, int(j)) not in blocked],
                             dtype=np.intp)
        ids = np.sort(ids)
        return ids

    def neighbors(self, node: int) -> list[int]:
        """Living neighbors of ``node`` within radio range (a fresh list)."""
        return self._neighbor_ids(node).tolist()

    def distance(self, a: int, b: int) -> float:
        """Euclidean distance between two nodes (memoized per generation)."""
        self._route_cache()
        key = (a, b) if a <= b else (b, a)
        cached = self._dist_cache.get(key)
        if cached is None:
            delta = self._positions[a] - self._positions[b]
            cached = float(np.hypot(delta[0], delta[1]))
            self._dist_cache[key] = cached
        return cached

    def nearest_to(self, point: np.ndarray, alive_only: bool = True) -> int:
        """Id of the node nearest to ``point``.

        Raises
        ------
        ValueError
            When ``alive_only`` is set and no node is alive.
        """
        dists = distances_from(self._positions, np.asarray(point, dtype=np.float64))
        if alive_only:
            if not self._alive.any():
                raise ValueError("nearest_to: no node is alive")
            dists = np.where(self._alive, dists, np.inf)
        return int(np.argmin(dists))

    def shortest_path(self, src: int, dst: int) -> list[int] | None:
        """Min-hop path from src to dst via BFS, or None if partitioned.

        Served from the route cache when the topology is unchanged since
        the answer was computed; a cached answer is exactly what a fresh
        BFS would return (deterministic lowest-id tie-breaking).
        """
        if src == dst:
            return [src]
        if not (self._alive[src] and self._alive[dst]):
            return None
        self._route_cache()
        key = (src, dst)
        if key in self._path_cache:
            self.route_cache_hits += 1
            cached = self._path_cache[key]
            return None if cached is None else list(cached)
        parent = self._parents_cache.get(src)
        if parent is None:
            self.route_cache_misses += 1
            parent = self._bfs_parents(src)
            self._parents_cache[src] = parent
        else:
            self.route_cache_hits += 1
        if dst not in parent:
            self._path_cache[key] = None
            return None
        path = [dst]
        while path[-1] != src:
            path.append(parent[path[-1]])
        path.reverse()
        self._path_cache[key] = path
        return list(path)

    def hop_counts_from(self, root: int) -> dict[int, int]:
        """BFS hop distance from ``root`` to every reachable living node."""
        self._route_cache()
        hops = self._hops_cache.get(root)
        if hops is None:
            self.route_cache_misses += 1
            hops = {root: 0}
            frontier = collections.deque([root])
            while frontier:
                u = frontier.popleft()
                for v in self._neighbor_ids(u):
                    v = int(v)
                    if v not in hops:
                        hops[v] = hops[u] + 1
                        frontier.append(v)
            self._hops_cache[root] = hops
        else:
            self.route_cache_hits += 1
        return dict(hops)

    def bfs_tree(self, root: int) -> dict[int, int]:
        """Parent map of a min-hop spanning tree rooted at ``root``.

        The root maps to itself.  Unreachable nodes are absent.  Ties
        between candidate parents are broken by lowest node id, making the
        tree deterministic.
        """
        self._route_cache()
        parent = self._parents_cache.get(root)
        if parent is None:
            self.route_cache_misses += 1
            parent = self._bfs_parents(root)
            self._parents_cache[root] = parent
        else:
            self.route_cache_hits += 1
        tree = dict(parent)
        tree[root] = root
        return tree

    def _bfs_parents(self, root: int, stop_at: int | None = None) -> dict[int, int]:
        parent: dict[int, int] = {}
        visited = {root}
        frontier = collections.deque([root])
        while frontier:
            u = frontier.popleft()
            for v in self._neighbor_ids(u):
                v = int(v)
                if v not in visited:
                    visited.add(v)
                    parent[v] = u
                    if v == stop_at:
                        return parent
                    frontier.append(v)
        return parent

    def is_connected(self, among: typing.Iterable[int] | None = None) -> bool:
        """True iff all living nodes (or ``among``) are mutually reachable."""
        nodes = list(among) if among is not None else self.alive_nodes()
        if len(nodes) <= 1:
            return True
        reached = set(self.hop_counts_from(nodes[0]))
        return all(n in reached for n in nodes)

    def connected_component(self, node: int) -> set[int]:
        """All living nodes reachable from ``node`` (including itself)."""
        return set(self.hop_counts_from(node))
