"""Unit tests for flooding, gossip, aggregation trees and clustering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network import RadioEnergyModel, RadioModel, Topology, grid_positions
from repro.network.routing import AggregationTree, ClusterFormation, Flooding, Gossip
from repro.queries.models import collection
from repro.sensors import SensorDeployment
from tests.network import oracle

RADIO = RadioModel(bandwidth_bps=1e6, latency_s=0.01, range_m=12.0)
EM = RadioEnergyModel()


def line_topology(n=5, spacing=10.0, range_m=12.0):
    pos = np.array([[i * spacing, 0.0] for i in range(n)])
    return Topology(pos, range_m=range_m)


def grid_topology(n=25, area=40.0, range_m=12.0):
    return Topology(grid_positions(n, area), range_m=range_m)


def grid_deployment(n=25, area=40.0, range_m=12.0):
    """``n`` grid-placed sensors plus the base station and one handheld."""
    radio = RadioModel(bandwidth_bps=1e6, latency_s=0.01, range_m=range_m)
    return SensorDeployment(n, area, radio=radio, energy_model=EM)


class TestFlooding:
    def test_reaches_whole_component(self):
        topo = grid_topology()
        res = Flooding(topo, RADIO, EM).disseminate(0, 100.0)
        assert res.reached == set(range(25))
        assert res.messages == 25  # everyone broadcasts once

    def test_partition_limits_reach(self):
        topo = line_topology()
        topo.kill(2)
        res = Flooding(topo, RADIO, EM).disseminate(0, 100.0)
        assert res.reached == {0, 1}
        assert res.messages == 2

    def test_latency_is_eccentricity(self):
        topo = line_topology(5)
        res = Flooding(topo, RADIO, EM).disseminate(0, 1000.0)
        assert res.latency_s == pytest.approx(4 * RADIO.hop_time(1000.0))

    def test_energy_sums_tx_and_rx(self):
        topo = line_topology(2)
        res = Flooding(topo, RADIO, EM).disseminate(0, 1000.0)
        # both nodes broadcast once; each hears the other's broadcast
        expected = 2 * EM.tx_cost(1000.0, RADIO.range_m) + 2 * EM.rx_cost(1000.0)
        assert res.energy_j == pytest.approx(expected)
        assert res.per_node_energy.sum() == pytest.approx(res.energy_j)


class TestGossip:
    def make(self, topo, prob=1.0, fanout=4, seed=0):
        return Gossip(topo, RADIO, EM, np.random.default_rng(seed), forward_prob=prob, fanout=fanout)

    def test_full_fanout_full_prob_reaches_component_on_line(self):
        topo = line_topology()
        res = self.make(topo).disseminate(0, 100.0)
        assert res.reached == {0, 1, 2, 3, 4}

    def test_low_prob_reaches_fewer(self):
        topo = grid_topology()
        full = self.make(topo, prob=1.0, fanout=4).disseminate(0, 100.0)
        sparse = self.make(topo, prob=0.3, fanout=1, seed=2).disseminate(0, 100.0)
        assert len(sparse.reached) < len(full.reached)

    def test_cheaper_than_flooding_in_energy_when_sparse(self):
        topo = grid_topology()
        flood = Flooding(topo, RADIO, EM).disseminate(0, 100.0)
        gossip = self.make(topo, prob=0.5, fanout=1, seed=1).disseminate(0, 100.0)
        assert gossip.energy_j < flood.energy_j

    def test_expected_coverage_in_unit_interval(self):
        topo = grid_topology(16)
        cov = self.make(topo, prob=0.7, fanout=2).expected_coverage(0, 100.0, trials=5)
        assert 0.0 < cov <= 1.0

    def test_reproducible_with_same_rng(self):
        topo = grid_topology()
        a = self.make(topo, prob=0.6, fanout=2, seed=9).disseminate(0, 100.0)
        b = self.make(topo, prob=0.6, fanout=2, seed=9).disseminate(0, 100.0)
        assert a.reached == b.reached
        assert a.energy_j == pytest.approx(b.energy_j)

    def test_validation(self):
        topo = line_topology()
        with pytest.raises(ValueError):
            self.make(topo, prob=0.0)
        with pytest.raises(ValueError):
            Gossip(topo, RADIO, EM, np.random.default_rng(0), fanout=0)


class TestAggregationTree:
    def test_line_tree_structure(self):
        topo = line_topology()
        tree = AggregationTree(topo, root=0)
        assert tree.parent[0] == 0
        assert tree.parent[3] == 2
        assert tree.children[0] == [1]
        assert tree.depth == 4
        assert tree.nodes == [0, 1, 2, 3, 4]

    def test_path_to_root(self):
        tree = AggregationTree(line_topology(), root=0)
        assert tree.path_to_root(3) == [3, 2, 1, 0]

    def test_tree_excludes_partitioned_nodes(self):
        topo = line_topology()
        topo.kill(2)
        tree = AggregationTree(topo, root=0)
        assert set(tree.nodes) == {0, 1}

    def test_root_only_tree(self):
        topo = line_topology()
        for n in (1, 2, 3, 4):
            topo.kill(n)
        tree = AggregationTree(topo, root=0)
        assert tree.nodes == [0]
        assert tree.depth == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=4, max_value=36), st.integers(min_value=0, max_value=50))
    def test_property_aggregated_cheaper_or_equal(self, n, seed):
        """Over any target subset's induced tree, aggregation sends no more
        messages and spends no more radio energy than raw forwarding.  The
        merge CPU is left out: a star around the sink merges nothing, so
        there it is the only difference."""
        dep = grid_deployment(n, area=30.0, range_m=16.0)
        rng = np.random.default_rng(seed)
        targets = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                    replace=False).tolist())
        raw = collection.raw_collection(dep, targets, 64.0)
        agg = collection.aggregated_collection(dep, targets, 64.0, ops_per_merge=0.0)
        assert agg.energy_j <= raw.energy_j + 1e-12
        assert agg.messages <= raw.messages


class TestClusterFormation:
    def make(self, topo, frac=0.2, seed=0):
        return ClusterFormation(topo, sink=0, rng=np.random.default_rng(seed), head_fraction=frac)

    def test_every_non_sink_node_assigned(self):
        topo = grid_topology()
        cf = self.make(topo)
        assert set(cf.membership) == set(range(1, 25))
        assert all(h in cf.heads for h in cf.membership.values())

    def test_at_least_one_head(self):
        topo = grid_topology()
        cf = self.make(topo, frac=1e-9)  # Bernoulli will miss; fallback fires
        assert len(cf.heads) == 1

    def test_sink_never_head_nor_member(self):
        topo = grid_topology()
        cf = self.make(topo)
        assert 0 not in cf.heads
        assert 0 not in cf.membership

    def test_members_of(self):
        topo = grid_topology()
        cf = self.make(topo)
        for head in cf.heads:
            for m in cf.members_of(head):
                assert cf.membership[m] == head
                assert m != head

    def test_collection_cost_positive(self):
        topo = grid_topology()
        cf = self.make(topo)
        cost = cf.aggregated_collection(64.0, 64.0, RADIO, EM)
        assert cost.energy_j > 0
        assert cost.messages >= len(cf.membership) - len(cf.heads)
        assert 0 in cost.participating

    def test_cluster_beats_raw_tree_collection(self):
        """Cluster aggregation also saves energy vs raw convergecast."""
        dep = grid_deployment()
        cf = ClusterFormation(dep.topology, sink=dep.base_station_id,
                              rng=np.random.default_rng(0), head_fraction=0.2)
        cluster = cf.aggregated_collection(64.0, 64.0, RADIO, EM)
        raw = collection.raw_collection(dep, dep.alive_sensor_ids(), 64.0)
        assert cluster.energy_j < raw.energy_j

    def test_dead_nodes_not_assigned(self):
        topo = grid_topology()
        topo.kill(5)
        cf = self.make(topo)
        assert 5 not in cf.membership

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterFormation(grid_topology(), 0, np.random.default_rng(0), head_fraction=0.0)

    def test_empty_network(self):
        topo = line_topology(2)
        topo.kill(1)
        cf = ClusterFormation(topo, sink=0, rng=np.random.default_rng(0))
        assert cf.heads == []
        assert cf.membership == {}

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.sampled_from([1e-9, 0.05, 0.2, 0.5, 1.0]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.integers(min_value=0, max_value=39), max_size=12),
    )
    def test_matches_per_node_loop(self, n, frac, lattice, seed, kills):
        """Vectorized assignment = the per-node loop (tests/network/oracle.py)
        through random deaths: same heads, the same membership in the same
        order with plain ints, and the same RNG state afterwards.  On a
        4×4 lattice nodes share positions, so heads co-locate and argmin
        ties; a near-zero fraction exercises the all-draws-miss fallback."""
        rng = np.random.default_rng(seed)
        if lattice:
            positions = rng.integers(0, 4, size=(n, 2)) * 10.0
        else:
            positions = rng.uniform(0.0, 50.0, size=(n, 2))
        topo = Topology(positions, range_m=15.0)
        sink = int(rng.integers(n))
        fast_rng, loop_rng = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        cf = ClusterFormation(topo, sink=sink, rng=fast_rng, head_fraction=frac)
        for round_ in range(len(kills) + 1):
            if round_:
                topo.kill(kills[round_ - 1] % n)
                cf.form()
            heads, membership = oracle.leach_form(topo, sink, loop_rng, frac)
            assert cf.heads == heads
            assert list(cf.membership.items()) == list(membership.items())
            assert all(type(node) is int and type(head) is int
                       for node, head in cf.membership.items())
            assert fast_rng.bit_generator.state == loop_rng.bit_generator.state
