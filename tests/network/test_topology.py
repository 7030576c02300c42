"""Unit tests for the dynamic unit-disc topology."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network import Topology, grid_positions, random_positions
from repro.network.spatial import GridHashIndex


def line_topology(n=5, spacing=10.0, range_m=12.0):
    pos = np.array([[i * spacing, 0.0] for i in range(n)])
    return Topology(pos, range_m=range_m)


class TestAdjacency:
    def test_line_neighbors(self):
        topo = line_topology()
        assert topo.neighbors(0) == [1]
        assert topo.neighbors(2) == [1, 3]

    def test_has_edge_symmetric(self):
        topo = line_topology()
        assert 2 in topo.neighbors(1) and 1 in topo.neighbors(2)
        assert 4 not in topo.neighbors(0)

    def test_kill_removes_edges(self):
        topo = line_topology()
        topo.kill(1)
        assert topo.neighbors(0) == []
        assert not topo.is_alive(1)
        assert topo.alive_nodes() == [0, 2, 3, 4]

    def test_revive_restores_edges(self):
        topo = line_topology()
        topo.kill(1)
        topo.revive(1)
        assert topo.neighbors(0) == [1]

    def test_version_bumps_on_changes(self):
        topo = line_topology()
        v0 = topo.version
        topo.kill(1)
        assert topo.version > v0
        v1 = topo.version
        topo.move(0, np.array([100.0, 100.0]))
        assert topo.version > v1

    def test_kill_dead_node_is_noop_for_version(self):
        topo = line_topology()
        topo.kill(1)
        v = topo.version
        topo.kill(1)
        assert topo.version == v

    def test_positions_view_read_only(self):
        topo = line_topology()
        with pytest.raises(ValueError):
            topo.positions[0, 0] = 5.0

    def test_move_changes_adjacency(self):
        topo = line_topology()
        topo.move(4, np.array([0.0, 5.0]))
        assert 4 in topo.neighbors(0)

    def test_move_all_shape_mismatch(self):
        topo = line_topology()
        with pytest.raises(ValueError):
            topo.move_all(np.zeros((3, 2)))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            Topology(np.zeros((2, 2)), range_m=0.0)

    def test_nan_range_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            Topology(np.zeros((2, 2)), range_m=math.nan)

    def test_infinite_range_links_every_pair(self):
        topo = Topology(np.array([[0.0, 0.0], [-40.0, 3.0], [1e6, -1e6]]), range_m=math.inf)
        assert [topo.neighbors(i) for i in range(3)] == [[1, 2], [0, 2], [0, 1]]


class TestPathsAndTrees:
    def test_shortest_path_line(self):
        topo = line_topology()
        assert topo.shortest_path(0, 4) == [0, 1, 2, 3, 4]
        assert topo.shortest_path(2, 2) == [2]

    def test_shortest_path_partitioned(self):
        topo = line_topology()
        topo.kill(2)
        assert topo.shortest_path(0, 4) is None

    def test_shortest_path_dead_endpoint(self):
        topo = line_topology()
        topo.kill(4)
        assert topo.shortest_path(0, 4) is None

    def test_hop_counts(self):
        topo = line_topology()
        hops = topo.hop_counts_from(0)
        assert hops == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_tree_parents(self):
        topo = line_topology()
        tree = topo.bfs_tree(0)
        assert tree[0] == 0
        assert tree[3] == 2

    def test_bfs_tree_deterministic_tie_break(self):
        # diamond: 0 - {1,2} - 3; parent of 3 must be the lower id (1)
        pos = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, -1.0], [2.0, 0.0]])
        topo = Topology(pos, range_m=1.6)
        tree = topo.bfs_tree(0)
        assert tree[3] == 1

    def test_is_connected(self):
        topo = line_topology()
        assert topo.is_connected()
        topo.kill(2)
        assert not topo.is_connected()
        assert topo.is_connected(among=[0, 1])

    def test_connected_component(self):
        topo = line_topology()
        topo.kill(2)
        assert topo.connected_component(0) == {0, 1}
        assert topo.connected_component(3) == {3, 4}

    def test_nearest_to(self):
        topo = line_topology()
        assert topo.nearest_to(np.array([21.0, 0.0])) == 2


class TestNearest:
    def test_nearest_alive_only(self):
        topo = line_topology()
        topo.kill(2)
        # node 2 at x=20 is dead; x=21 is nearest to node 3 at x=30? no: |21-10|=11, |21-30|=9
        assert topo.nearest_to(np.array([21.0, 0.0])) == 3
        assert topo.nearest_to(np.array([21.0, 0.0]), alive_only=False) == 2

    def test_nearest_with_no_living_node_raises(self):
        topo = line_topology(n=3)
        for node in range(3):
            topo.kill(node)
        with pytest.raises(ValueError, match="no node is alive"):
            topo.nearest_to(np.array([0.0, 0.0]))
        assert topo.nearest_to(np.array([21.0, 0.0]), alive_only=False) == 2


class TestPositionValidation:
    @pytest.mark.parametrize("bad", [
        5.0,
        [1.0],
        [1.0, 2.0, 3.0],
        [[1.0, 2.0]],
        [np.nan, 0.0],
        [0.0, np.inf],
    ])
    def test_move_rejects_non_pair_or_non_finite(self, bad):
        topo = line_topology()
        version = topo.version
        with pytest.raises(ValueError, match="finite"):
            topo.move(1, bad)
        # a rejected move leaves the node and the topology untouched
        assert list(topo.position_of(1)) == [10.0, 0.0]
        assert topo.version == version
        assert topo.neighbors(1) == [0, 2]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite(self, bad):
        pos = np.array([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            Topology(pos, range_m=5.0)

    def test_move_all_rejects_non_finite(self):
        topo = line_topology()
        pos = topo.positions.copy()
        pos[3, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            topo.move_all(pos)
        assert topo.neighbors(3) == [2, 4]


class TestNeighborCache:
    @staticmethod
    def count_recomputes(monkeypatch):
        calls = []
        original = GridHashIndex.candidates_near

        def counting(index, node):
            calls.append(node)
            return original(index, node)

        monkeypatch.setattr(GridHashIndex, "candidates_near", counting)
        return calls

    def test_kill_and_revive_keep_cached_lists(self, monkeypatch):
        topo = Topology(random_positions(40, 60.0, np.random.default_rng(5)), 15.0)
        before = [topo.neighbors(i) for i in range(40)]
        calls = self.count_recomputes(monkeypatch)
        victim = max(range(40), key=lambda i: len(before[i]))
        topo.kill(victim)
        assert topo.neighbors(victim) == []
        for i in range(40):
            if i != victim:
                assert topo.neighbors(i) == [j for j in before[i] if j != victim]
        topo.revive(victim)
        assert [topo.neighbors(i) for i in range(40)] == before
        assert calls == []

    @pytest.mark.parametrize("change", ["move", "move_all", "block", "unblock"])
    def test_geometry_changes_recompute(self, monkeypatch, change):
        topo = Topology(random_positions(40, 60.0, np.random.default_rng(5)), 15.0)
        blocked = [(0, 1)]
        topo.block_links([0], [1])
        for i in range(40):
            topo.neighbors(i)
        calls = self.count_recomputes(monkeypatch)
        if change == "move":
            topo.move(0, np.array([30.0, 30.0]))
        elif change == "move_all":
            topo.move_all(topo.positions[::-1].copy())
        elif change == "block":
            topo.block_links([2], [3])
            blocked.append((2, 3))
        else:
            topo.unblock_links([0], [1])
            blocked.remove((0, 1))
        after = [topo.neighbors(i) for i in range(40)]
        assert len(calls) == 40
        fresh = Topology(topo.positions, 15.0)
        for a, b in blocked:
            fresh.block_links([a], [b])
        assert after == [fresh.neighbors(i) for i in range(40)]


class TestNodeIdValidation:
    @pytest.mark.parametrize("node", [-1, -3, 3, 7])
    @pytest.mark.parametrize("op", ["move", "kill", "revive"])
    def test_out_of_range_id_raises_before_any_change(self, op, node):
        topo = line_topology(n=3)
        topo.kill(0)
        version, positions = topo.version, topo.positions.copy()
        args = (node, np.array([5.0, 5.0])) if op == "move" else (node,)
        with pytest.raises(IndexError, match="out of range"):
            getattr(topo, op)(*args)
        assert topo.version == version
        assert np.array_equal(topo.positions, positions)
        assert topo.alive_nodes() == [1, 2]
        assert topo.neighbors(1) == [2]
        assert topo.neighbors(2) == [1]


class TestPlacements:
    def test_grid_positions_count_and_bounds(self):
        pts = grid_positions(10, 100.0)
        assert pts.shape == (10, 2)
        assert pts.min() >= 0.0 and pts.max() <= 100.0

    def test_grid_positions_single(self):
        pts = grid_positions(1, 100.0)
        assert pts.shape == (1, 2)

    def test_grid_positions_invalid(self):
        with pytest.raises(ValueError):
            grid_positions(0, 100.0)

    def test_random_positions_reproducible(self):
        a = random_positions(5, 50.0, np.random.default_rng(3))
        b = random_positions(5, 50.0, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 50.0

    @settings(max_examples=25)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=100))
    def test_grid_lattice_connected_when_range_exceeds_spacing(self, n, seed):
        pts = grid_positions(n, 90.0)
        side = int(np.ceil(np.sqrt(n)))
        spacing = 90.0 / max(side - 1, 1)
        topo = Topology(pts, range_m=spacing * 1.01)
        assert topo.is_connected()
