"""Route-cache correctness: cached answers must equal uncached BFS.

The cache memoizes BFS parents/paths/hop-counts behind the topology's
generation counter; every mutation (kill, revive, move, link blocking)
bumps the counter and lazily flushes the cache.  These tests compare
every cached answer against the uncached dense oracle
(``tests/network/oracle.py``) under heavy churn, and pin down the
hit/miss/invalidation accounting.
"""

import numpy as np
import pytest

from repro.network import Topology, record_route_cache_metrics
from repro.simkernel import Monitor
from tests.network.oracle import DenseTopology


def line_topology(n=6, spacing=10.0, range_m=12.0):
    pos = np.array([[i * spacing, 0.0] for i in range(n)])
    return Topology(pos, range_m=range_m)


class TestCacheBasics:
    def test_repeat_query_hits(self):
        topo = line_topology()
        first = topo.shortest_path(0, 5)
        stats = topo.route_cache_stats
        assert stats["misses"] == 1 and stats["hits"] == 0
        second = topo.shortest_path(0, 5)
        assert topo.route_cache_stats["hits"] == 1
        assert first == second == [0, 1, 2, 3, 4, 5]

    def test_cached_paths_are_private_copies(self):
        topo = line_topology()
        first = topo.shortest_path(0, 5)
        first.append(999)  # caller mutates its copy
        assert topo.shortest_path(0, 5) == [0, 1, 2, 3, 4, 5]

    def test_one_bfs_serves_all_destinations(self):
        topo = line_topology()
        topo.shortest_path(0, 5)  # the only BFS this test should run
        for dst in (1, 2, 3, 4):
            assert topo.shortest_path(0, dst) == list(range(dst + 1))
        assert topo.route_cache_stats["misses"] == 1

    def test_unreachable_result_is_cached(self):
        topo = line_topology()
        topo.kill(2)
        assert topo.shortest_path(0, 5) is None
        misses = topo.route_cache_stats["misses"]
        assert topo.shortest_path(0, 5) is None
        assert topo.route_cache_stats["misses"] == misses
        assert topo.route_cache_stats["hits"] >= 1

    def test_trivial_queries_bypass_cache(self):
        topo = line_topology()
        assert topo.shortest_path(3, 3) == [3]
        topo.kill(4)
        assert topo.shortest_path(0, 4) is None  # dead endpoint
        assert topo.route_cache_stats["misses"] == 0

    def test_hop_counts_and_bfs_tree_cached(self):
        topo = line_topology()
        hops = topo.hop_counts_from(0)
        tree = topo.bfs_tree(0)
        assert hops[5] == 5 and tree[5] == 4 and tree[0] == 0
        stats = topo.route_cache_stats
        topo.hop_counts_from(0)
        topo.bfs_tree(0)
        assert topo.route_cache_stats["hits"] == stats["hits"] + 2
        # returned mappings are private copies
        topo.hop_counts_from(0).clear()
        assert topo.hop_counts_from(0)[5] == 5


class TestInvalidation:
    def test_kill_invalidates(self):
        topo = line_topology()
        assert topo.shortest_path(0, 5) == [0, 1, 2, 3, 4, 5]
        topo.kill(3)
        assert topo.shortest_path(0, 5) is None
        assert topo.route_cache_stats["invalidations"] == 1

    def test_revive_restores_route(self):
        topo = line_topology()
        topo.kill(3)
        assert topo.shortest_path(0, 5) is None
        topo.revive(3)
        assert topo.shortest_path(0, 5) == [0, 1, 2, 3, 4, 5]

    def test_move_invalidates(self):
        topo = line_topology()
        assert topo.shortest_path(0, 2) == [0, 1, 2]
        d_before = topo.distance(0, 1)
        topo.move(1, np.array([500.0, 0.0]))  # out of everyone's range
        assert topo.shortest_path(0, 2) is None
        assert topo.distance(0, 1) != d_before

    def test_block_links_invalidates(self):
        topo = line_topology()
        assert topo.shortest_path(0, 5) is not None
        topo.block_links([2], [3])
        assert topo.shortest_path(0, 5) is None
        topo.unblock_links([2], [3])
        assert topo.shortest_path(0, 5) == [0, 1, 2, 3, 4, 5]

    def test_invalidation_counted_once_per_flush(self):
        topo = line_topology()
        topo.shortest_path(0, 5)
        topo.kill(3)
        topo.revive(3)  # two version bumps, but the cache flushes lazily
        topo.shortest_path(0, 5)
        assert topo.route_cache_stats["invalidations"] == 1

    def test_mutation_without_queries_never_flushes(self):
        topo = line_topology()
        topo.kill(1)
        topo.revive(1)
        assert topo.route_cache_stats["invalidations"] == 0


class TestChurnEquivalence:
    """Fuzz: interleave queries and mutations; cache must track the oracle."""

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_churn(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        pos = rng.uniform(0.0, 60.0, size=(n, 2))
        topo = Topology(pos, range_m=22.0)
        ref = DenseTopology(pos, 22.0)
        blocked = []
        for _ in range(300):
            op = rng.integers(0, 8)
            if op == 0:
                u = int(rng.integers(0, n))
                topo.kill(u)
                ref.kill(u)
            elif op == 1:
                u = int(rng.integers(0, n))
                topo.revive(u)
                ref.revive(u)
            elif op == 2:
                u, p = int(rng.integers(0, n)), rng.uniform(0.0, 60.0, 2)
                topo.move(u, p)
                ref.move(u, p)
            elif op == 3 and len(blocked) < 4:
                a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
                if a != b:
                    topo.block_links([a], [b])
                    ref.block_links([a], [b])
                    blocked.append((a, b))
            elif op == 4 and blocked:
                a, b = blocked.pop()
                topo.unblock_links([a], [b])
                ref.unblock_links([a], [b])
            else:
                src, dst = int(rng.integers(0, n)), int(rng.integers(0, n))
                assert topo.shortest_path(src, dst) == ref.shortest_path(src, dst)
                if topo.is_alive(src):
                    assert topo.hop_counts_from(src) == ref.hop_counts_from(src)
                    assert topo.bfs_tree(src) == ref.bfs_tree(src)
        stats = topo.route_cache_stats
        assert stats["hits"] > 0 and stats["invalidations"] > 0


class TestMetricsExport:
    def test_record_route_cache_metrics_idempotent(self):
        topo = line_topology()
        monitor = Monitor()
        topo.shortest_path(0, 5)
        topo.shortest_path(0, 5)
        record_route_cache_metrics(topo, monitor)
        record_route_cache_metrics(topo, monitor)  # no double counting
        assert monitor.counter("net.route_cache.hits").value == 1
        assert monitor.counter("net.route_cache.misses").value == 1
        topo.shortest_path(0, 4)
        record_route_cache_metrics(topo, monitor)
        assert monitor.counter("net.route_cache.hits").value == 2
