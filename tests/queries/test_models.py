"""Tests for execution models: estimates, execution, paper-shaped claims."""

import numpy as np
import pytest

from repro.grid import GridInfrastructure
from repro.queries import parse_query
from repro.queries.models import (
    ALL_MODELS,
    CentralizedModel,
    ClusterModel,
    GridOffloadModel,
    HandheldModel,
    InNetworkTreeModel,
    QueryContext,
    RegionAverageModel,
    complex_ops,
)
from repro.queries.models import collection
from repro.queries.models.base import CostEstimate
from repro.sensors import SensorDeployment, UniformField
from repro.simkernel import RandomStreams, Simulator


def make_ctx(n=25, area=40.0, seed=0, loss=0.0, noise_std=0.0, resolution=20):
    from repro.network.radio import RadioModel

    streams = RandomStreams(seed)
    sim = Simulator()
    side = int(np.ceil(np.sqrt(n)))
    spacing = area / max(side - 1, 1)
    radio = RadioModel(bandwidth_bps=250_000.0, latency_s=0.01, loss_prob=loss,
                       range_m=max(spacing * 1.6, 0.12 * area))
    dep = SensorDeployment(n, area, UniformField(25.0), sim=sim, streams=streams,
                           radio=radio, noise_std=noise_std)
    grid = GridInfrastructure(sim)
    return QueryContext(deployment=dep, grid=grid, streams=streams, grid_resolution=resolution)


AVG_Q = parse_query("SELECT AVG(value) FROM sensors")
MEDIAN_Q = parse_query("SELECT MEDIAN(value) FROM sensors")
SIMPLE_Q = parse_query("SELECT value FROM sensors WHERE sensor_id = 7")
COMPLEX_Q = parse_query("SELECT DISTRIBUTION(value) FROM sensors")


def run_model(model, query, ctx, targets=None):
    if targets is None:
        targets = ctx.deployment.alive_sensor_ids()
    outcomes = []
    model.execute(query, ctx, targets, outcomes.append)
    ctx.sim.run()
    return outcomes[0]


class TestCollectionHelpers:
    def test_induced_nodes_contains_paths(self):
        ctx = make_ctx()
        tree = collection.build_tree(ctx.deployment)
        nodes = collection.induced_nodes(tree, [0])
        assert 0 in nodes and tree.root in nodes
        assert nodes == set(tree.path_to_root(0))

    def test_aggregated_one_message_per_induced_node(self):
        ctx = make_ctx()
        targets = ctx.deployment.alive_sensor_ids()
        cost = collection.aggregated_collection(ctx.deployment, targets, 64.0)
        tree = collection.build_tree(ctx.deployment)
        induced = collection.induced_nodes(tree, targets)
        assert cost.messages == len(induced) - 1  # all but root

    def test_raw_counts_readings(self):
        ctx = make_ctx()
        targets = ctx.deployment.alive_sensor_ids()
        cost = collection.raw_collection(ctx.deployment, targets, 64.0)
        # total bits = sum over targets of 64 * path length >= 64 * n
        assert cost.bits_total >= 64.0 * len(targets)
        assert cost.messages >= len(targets)

    def test_raw_more_expensive_than_aggregated(self):
        """The paper's headline energy claim, at helper level."""
        ctx = make_ctx()
        targets = ctx.deployment.alive_sensor_ids()
        raw = collection.raw_collection(ctx.deployment, targets, 64.0)
        agg = collection.aggregated_collection(ctx.deployment, targets, 64.0)
        assert raw.energy_j > agg.energy_j
        assert raw.messages > agg.messages
        assert raw.latency_s > agg.latency_s

    def test_partitioned_targets_excluded(self):
        ctx = make_ctx()
        ctx.deployment.topology.kill(12)  # may cut some paths
        targets = ctx.deployment.alive_sensor_ids()
        cost = collection.aggregated_collection(ctx.deployment, targets, 64.0)
        assert 12 not in cost.participating

    def test_mean_target_depth(self):
        ctx = make_ctx()
        d = collection.mean_target_depth(ctx.deployment, ctx.deployment.alive_sensor_ids())
        assert d > 0.0


class TestSupports:
    def test_tree_supports_decomposable_only(self):
        ctx = make_ctx()
        tree = InNetworkTreeModel()
        assert tree.supports(AVG_Q, ctx)
        assert tree.supports(SIMPLE_Q, ctx)
        assert not tree.supports(MEDIAN_Q, ctx)  # holistic
        assert not tree.supports(COMPLEX_Q, ctx)

    def test_cluster_same_restrictions(self):
        ctx = make_ctx()
        cluster = ClusterModel()
        assert cluster.supports(AVG_Q, ctx)
        assert not cluster.supports(COMPLEX_Q, ctx)

    def test_centralized_and_grid_support_everything(self):
        ctx = make_ctx()
        for model in (CentralizedModel(), GridOffloadModel()):
            for q in (AVG_Q, MEDIAN_Q, SIMPLE_Q, COMPLEX_Q):
                assert model.supports(q, ctx)

    def test_handheld_requires_handheld(self):
        ctx = make_ctx()
        assert HandheldModel().supports(AVG_Q, ctx)

    def test_region_supports_avg_and_complex_not_max(self):
        ctx = make_ctx()
        region = RegionAverageModel()
        assert region.supports(AVG_Q, ctx)
        assert region.supports(COMPLEX_Q, ctx)
        assert not region.supports(parse_query("SELECT MAX(value) FROM sensors"), ctx)
        assert not region.supports(SIMPLE_Q, ctx)


class TestEstimates:
    def test_estimates_feasible_on_healthy_network(self):
        ctx = make_ctx()
        targets = ctx.deployment.alive_sensor_ids()
        for cls in ALL_MODELS:
            model = cls()
            if model.supports(AVG_Q, ctx):
                est = model.estimate(AVG_Q, ctx, targets)
                assert est.feasible
                assert est.energy_j > 0 and est.time_s > 0

    def test_empty_targets_infeasible(self):
        ctx = make_ctx()
        for cls in ALL_MODELS:
            assert not cls().estimate(AVG_Q, ctx, []).feasible

    def test_tree_cheaper_than_centralized_for_aggregates(self):
        """E2's core shape, at estimate level."""
        ctx = make_ctx()
        targets = ctx.deployment.alive_sensor_ids()
        tree = InNetworkTreeModel().estimate(AVG_Q, ctx, targets)
        central = CentralizedModel().estimate(AVG_Q, ctx, targets)
        assert tree.energy_j < central.energy_j

    def test_grid_fastest_for_large_complex(self):
        """E3's core shape: only the grid makes the (large) PDE interactive."""
        ctx = make_ctx(resolution=60)
        targets = ctx.deployment.alive_sensor_ids()
        grid = GridOffloadModel().estimate(COMPLEX_Q, ctx, targets)
        central = CentralizedModel().estimate(COMPLEX_Q, ctx, targets)
        handheld = HandheldModel().estimate(COMPLEX_Q, ctx, targets)
        assert grid.time_s < central.time_s < handheld.time_s
        assert handheld.time_s > 100 * grid.time_s

    def test_crossover_small_complex_stays_local(self):
        """E8's premise: below the crossover, shipping data beats offload."""
        ctx = make_ctx(resolution=12)
        targets = ctx.deployment.alive_sensor_ids()
        grid = GridOffloadModel().estimate(COMPLEX_Q, ctx, targets)
        central = CentralizedModel().estimate(COMPLEX_Q, ctx, targets)
        assert central.time_s < grid.time_s

    def test_region_trades_accuracy_for_data(self):
        ctx = make_ctx()
        targets = ctx.deployment.alive_sensor_ids()
        region = RegionAverageModel(regions_per_side=2).estimate(AVG_Q, ctx, targets)
        central = CentralizedModel().estimate(AVG_Q, ctx, targets)
        assert region.data_bits < central.data_bits
        assert region.rel_error > 0.0
        assert central.rel_error == 0.0

    def test_region_error_shrinks_with_granularity(self):
        ctx = make_ctx(n=49, area=60.0)
        targets = ctx.deployment.alive_sensor_ids()
        coarse = RegionAverageModel(regions_per_side=2).estimate(AVG_Q, ctx, targets)
        fine = RegionAverageModel(regions_per_side=5).estimate(AVG_Q, ctx, targets)
        assert fine.rel_error < coarse.rel_error
        assert fine.data_bits > coarse.data_bits

    def test_partition_infeasible(self):
        ctx = make_ctx(n=9, area=30.0)
        # kill everything around the base to cut it off from sensors 3..8
        for sid in (0, 1, 2):
            ctx.deployment.topology.kill(sid)
        targets = [6, 7, 8]
        est = CentralizedModel().estimate(AVG_Q, ctx, targets)
        # either reachable through side paths or infeasible; check coherence
        if not est.feasible:
            assert est.time_s == float("inf")

    def test_metric_lookup(self):
        est = CostEstimate(energy_j=1.0, time_s=2.0, data_bits=3.0, ops=4.0, rel_error=0.1)
        assert est.metric("energy") == 1.0
        assert est.metric("time") == 2.0
        assert est.metric("accuracy") == 0.1
        with pytest.raises(KeyError):
            est.metric("joy")

    def test_complex_ops_validation(self):
        with pytest.raises(ValueError):
            complex_ops(-1)
        assert complex_ops(100) == pytest.approx(50.0 * 1e4)


class TestExecution:
    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_avg_answer_close_to_truth(self, model_cls):
        ctx = make_ctx(noise_std=0.0)
        model = model_cls()
        if not model.supports(AVG_Q, ctx):
            pytest.skip("model does not support AVG")
        outcome = run_model(model, AVG_Q, ctx)
        assert outcome.success
        assert outcome.value == pytest.approx(25.0, rel=0.02)
        assert outcome.energy_j > 0 and outcome.time_s > 0

    def test_simple_query_returns_reading(self):
        ctx = make_ctx(noise_std=0.0)
        outcome = run_model(InNetworkTreeModel(), SIMPLE_Q, ctx, targets=[7])
        assert outcome.success
        assert outcome.value == pytest.approx(25.0)
        assert outcome.readings_used == 1

    def test_complex_query_returns_field(self):
        ctx = make_ctx(noise_std=0.0, resolution=16)
        outcome = run_model(GridOffloadModel(), COMPLEX_Q, ctx)
        assert outcome.success
        assert outcome.value.shape == (16, 16)
        # uniform field: the solved distribution is ~25 everywhere
        assert np.allclose(outcome.value, 25.0, atol=1.0)

    def test_histogram_complex_function(self):
        ctx = make_ctx(noise_std=0.0)
        q = parse_query("SELECT HISTOGRAM(value) FROM sensors")
        outcome = run_model(CentralizedModel(), q, ctx)
        counts, edges = outcome.value
        assert counts.sum() == outcome.readings_used

    def test_value_predicate_filters_readings(self):
        ctx = make_ctx(noise_std=0.0)
        q = parse_query("SELECT COUNT(value) FROM sensors WHERE value > 100")
        outcome = run_model(CentralizedModel(), q, ctx)
        # uniform 25 field: no reading passes; count over empty -> failure
        assert not outcome.success

    def test_execution_charges_batteries(self):
        ctx = make_ctx()
        before = ctx.deployment.total_sensor_energy_consumed()
        run_model(CentralizedModel(), AVG_Q, ctx)
        assert ctx.deployment.total_sensor_energy_consumed() > before

    def test_actuals_deviate_from_estimates_under_load(self):
        """Contention/retransmission make actual != estimate (E4's premise)."""
        ctx = make_ctx(loss=0.05)
        targets = ctx.deployment.alive_sensor_ids()
        model = CentralizedModel()
        est = model.estimate(AVG_Q, ctx, targets)
        outcome = run_model(model, AVG_Q, ctx, targets)
        assert outcome.time_s != pytest.approx(est.time_s, rel=1e-6)
        assert outcome.time_s > 0

    def test_execution_reproducible_from_seed(self):
        def run(seed):
            ctx = make_ctx(seed=seed, loss=0.02)
            return run_model(CentralizedModel(), AVG_Q, ctx)

        a, b = run(5), run(5)
        assert a.time_s == b.time_s and a.energy_j == b.energy_j
        c = run(6)
        assert c.time_s != a.time_s

    def test_unsupported_execution_fails_cleanly(self):
        ctx = make_ctx()
        outcomes = []
        InNetworkTreeModel().execute(COMPLEX_Q, ctx, ctx.deployment.alive_sensor_ids(), outcomes.append)
        ctx.sim.run()
        assert not outcomes[0].success

    def test_region_avg_reweighted_correctly(self):
        """Weighted SUM over regions equals true sum (uniform field)."""
        ctx = make_ctx(noise_std=0.0)
        q = parse_query("SELECT SUM(value) FROM sensors")
        outcome = run_model(RegionAverageModel(regions_per_side=2), q, ctx)
        assert outcome.success
        assert outcome.value == pytest.approx(25.0 * 25, rel=0.01)

    def test_cluster_head_fraction_validation(self):
        with pytest.raises(ValueError):
            ClusterModel(head_fraction=0.0)
        with pytest.raises(ValueError):
            RegionAverageModel(regions_per_side=0)
