"""Grid-hash spatial index vs dense adjacency: exact equivalence.

``Topology`` answers every neighbor query from the grid hash; it must
agree bit-for-bit with the dense O(n^2) adjacency.  The fuzz and property
tests here drive ``Topology`` and the from-scratch dense oracle
(``tests/network/oracle.py``) through the same churn (moves, bulk moves,
kills, revives, link blocking) and compare every query after every
mutation.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.geometry import (
    ADJACENCY_MAX_N,
    PAIRWISE_MAX_N,
    PopulationTooLarge,
    neighbors_within,
    pairwise_distances,
)
from repro.network.spatial import GridHashIndex
from repro.network.topology import Topology
from tests.network.oracle import DenseTopology


def dense_row(positions, radius, node):
    """Reference neighbor row straight from the dense helper."""
    adj = neighbors_within(positions, radius)
    return list(np.flatnonzero(adj[node]))


class TestGridHashIndex:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        pos = rng.random((n, 2)) * 50
        radius = float(rng.uniform(2.0, 25.0))
        index = GridHashIndex(pos, radius)
        for u in range(n):
            assert list(index.neighbors_within(u, pos)) == dense_row(pos, radius, u)

    def test_incremental_move_matches_rebuild(self):
        rng = np.random.default_rng(3)
        pos = rng.random((80, 2)) * 40
        index = GridHashIndex(pos, 6.0)
        for _ in range(300):
            u = int(rng.integers(0, 80))
            pos[u] = rng.random(2) * 40
            index.move(u, pos[u])
        fresh = GridHashIndex(pos, 6.0)
        for u in range(80):
            assert list(index.neighbors_within(u, pos)) == \
                list(fresh.neighbors_within(u, pos))

    def test_move_all_rebuckets_only_changed(self):
        rng = np.random.default_rng(4)
        pos = rng.random((100, 2)) * 100
        index = GridHashIndex(pos, 10.0)
        moved = index.move_all(pos)  # no-op bulk move
        assert moved == 0
        pos2 = pos.copy()
        pos2[:5] += 30.0  # guaranteed cell changes for exactly 5 nodes
        assert index.move_all(pos2) == 5
        fresh = GridHashIndex(pos2, 10.0)
        for u in range(100):
            assert list(index.neighbors_within(u, pos2)) == \
                list(fresh.neighbors_within(u, pos2))

    def test_coincident_nodes_are_neighbors(self):
        """Distance 0 between distinct nodes is within any radius; only the
        self-loop is excluded (same convention as the dense path)."""
        pos = np.array([[5.0, 5.0], [5.0, 5.0], [30.0, 30.0]])
        index = GridHashIndex(pos, 2.0)
        assert list(index.neighbors_within(0, pos)) == [1]
        assert list(index.neighbors_within(1, pos)) == [0]
        assert list(index.neighbors_within(2, pos)) == []

    def test_boundary_distance_exact(self):
        """dist == radius is a neighbor under both backends (<=, not <)."""
        pos = np.array([[0.0, 0.0], [7.0, 0.0]])
        index = GridHashIndex(pos, 7.0)
        assert list(index.neighbors_within(0, pos)) == [1]
        assert dense_row(pos, 7.0, 0) == [1]

    def test_negative_coordinates(self):
        """floor-based cell hashing must be correct left of the origin."""
        rng = np.random.default_rng(9)
        pos = rng.random((60, 2)) * 40 - 20.0
        index = GridHashIndex(pos, 5.0)
        for u in range(60):
            assert list(index.neighbors_within(u, pos)) == dense_row(pos, 5.0, u)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=0.5, max_value=30.0, allow_nan=False),
    )
    def test_property_always_matches_dense(self, n, seed, radius):
        rng = np.random.default_rng(seed)
        pos = rng.random((n, 2)) * 30
        index = GridHashIndex(pos, radius)
        adj = neighbors_within(pos, radius)
        for u in range(n):
            assert list(index.neighbors_within(u, pos)) == \
                list(np.flatnonzero(adj[u]))


class TestTopologyBackendEquivalence:
    """The production ``Topology`` against the dense oracle."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_churn_bit_identical(self, seed):
        """Topology and the dense oracle agree on every query through
        heavy churn: single moves, bulk moves, kills, revives, blocks."""
        rng = np.random.default_rng(seed)
        n = 150
        pos = rng.random((n, 2)) * 80
        radius = 11.0
        ref = DenseTopology(pos, radius)
        topo = Topology(pos, radius)

        def check():
            adj = ref.adjacency()
            for u in range(n):
                assert topo.neighbors(u) == list(np.flatnonzero(adj[u]))
            probe = rng.integers(0, n, 30).reshape(-1, 2)
            for a, b in probe:
                a, b = int(a), int(b)
                assert topo.has_edge(a, b) == bool(adj[a, b])
                assert topo.shortest_path(a, b) == ref.shortest_path(a, b)
            root = int(rng.integers(0, n))
            assert topo.hop_counts_from(root) == ref.hop_counts_from(root)
            assert topo.bfs_tree(root) == ref.bfs_tree(root)
            assert topo.is_connected() == ref.is_connected()

        check()
        for _ in range(10):
            for u in rng.integers(0, n, 8):
                p = rng.random(2) * 80
                ref.move(int(u), p)
                topo.move(int(u), p)
            for u in rng.integers(0, n, 4):
                ref.kill(int(u))
                topo.kill(int(u))
            for u in rng.integers(0, n, 2):
                ref.revive(int(u))
                topo.revive(int(u))
            ga = [int(x) for x in rng.integers(0, n, 3)]
            gb = [int(x) for x in rng.integers(0, n, 3)]
            ref.block_links(ga, gb)
            topo.block_links(ga, gb)
            check()
            ref.unblock_links(ga, gb)
            topo.unblock_links(ga, gb)
            bulk = topo.positions + rng.normal(0, 2, (n, 2))
            ref.move_all(bulk)
            topo.move_all(bulk)
            check()

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12),
        st.sampled_from([2.5, 5.0, 7.5, 11.0]),
        st.data(),
    )
    def test_property_interleaved_churn_matches_oracle(self, n, radius, data):
        """Any interleaving of move/move_all/kill/revive/block/unblock
        leaves every query equal to the from-scratch oracle.  Coordinates
        sit on a 2.5 m lattice around the origin, so coincident nodes,
        distances exactly equal to the range, cell-boundary points and
        negative coordinates all come up."""
        coord = st.integers(min_value=-4, max_value=8).map(lambda k: k * 2.5)
        node = st.integers(min_value=0, max_value=n - 1)
        group = st.lists(node, min_size=1, max_size=3)
        op = st.one_of(
            st.tuples(st.just("move"), node, coord, coord),
            st.tuples(st.just("move_all"),
                      st.lists(st.tuples(coord, coord), min_size=n, max_size=n)),
            st.tuples(st.just("kill"), node),
            st.tuples(st.just("revive"), node),
            st.tuples(st.just("block"), group, group),
            st.tuples(st.just("unblock")),
        )
        start = data.draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
        topo = Topology(np.array(start), radius)
        ref = DenseTopology(np.array(start), radius)
        blocks = []

        def check():
            adj = ref.adjacency()
            for u in range(n):
                assert topo.neighbors(u) == list(np.flatnonzero(adj[u]))
                for v in range(n):
                    assert topo.has_edge(u, v) == bool(adj[u, v])
            for src in range(n):
                tree = ref.bfs_tree(src)
                assert topo.bfs_tree(src) == tree
                assert topo.hop_counts_from(src) == ref.hop_counts_from(src)
                for dst in range(n):
                    assert topo.shortest_path(src, dst) == \
                        ref.shortest_path(src, dst)
            assert topo.is_connected() == ref.is_connected()

        check()
        for step in data.draw(st.lists(op, max_size=12)):
            kind = step[0]
            if kind == "move":
                _, u, x, y = step
                topo.move(u, np.array([x, y]))
                ref.move(u, (x, y))
            elif kind == "move_all":
                topo.move_all(np.array(step[1]))
                ref.move_all(np.array(step[1]))
            elif kind == "kill":
                topo.kill(step[1])
                ref.kill(step[1])
            elif kind == "revive":
                topo.revive(step[1])
                ref.revive(step[1])
            elif kind == "block":
                topo.block_links(step[1], step[2])
                ref.block_links(step[1], step[2])
                blocks.append((step[1], step[2]))
            elif blocks:
                ga, gb = blocks.pop(0)
                topo.unblock_links(ga, gb)
                ref.unblock_links(ga, gb)
            check()

    def test_blocked_links_do_not_leak_memory_dense_matrix(self):
        """Blocking is dict-backed: a topology above the dense cap can
        block links without ever materializing an (n, n) matrix."""
        rng = np.random.default_rng(1)
        n = ADJACENCY_MAX_N + 10
        topo = Topology(rng.random((n, 2)) * 1e4, 5.0)
        topo.block_links([0, 1], [2, 3])
        assert not topo.has_edge(0, 2)
        topo.unblock_links([0, 1], [2, 3])
        # neighbors still answer at a population the dense path refuses
        assert isinstance(topo.neighbors(0), list)


class TestDenseGuards:
    def test_pairwise_refuses_oversized(self):
        pos = np.zeros((PAIRWISE_MAX_N + 1, 2))
        with pytest.raises(PopulationTooLarge, match="spatial index"):
            pairwise_distances(pos)

    def test_adjacency_refuses_oversized(self):
        pos = np.zeros((ADJACENCY_MAX_N + 1, 2))
        with pytest.raises(PopulationTooLarge, match="spatial index"):
            neighbors_within(pos, 1.0)

    def test_max_n_override(self):
        pos = np.zeros((5, 2))
        with pytest.raises(PopulationTooLarge):
            pairwise_distances(pos, max_n=4)
        assert pairwise_distances(pos, max_n=5).shape == (5, 5)

    def test_blockwise_matches_single_shot(self):
        """Block-row evaluation is bit-identical to one full broadcast."""
        rng = np.random.default_rng(5)
        pos = rng.random((200, 2)) * 100
        delta = pos[:, None, :] - pos[None, :, :]
        ref = np.hypot(delta[..., 0], delta[..., 1])
        assert np.array_equal(pairwise_distances(pos), ref)
        adj = ref <= 12.0
        np.fill_diagonal(adj, False)
        assert np.array_equal(neighbors_within(pos, 12.0), adj)
