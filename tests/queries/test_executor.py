"""Tests for the query executor: epochs, feedback, dissemination."""

import math

import pytest

from repro.core import PervasiveGridRuntime
from repro.queries import QueryClass, QueryExecutor, parse_query
from repro.queries.ast import Query, SelectItem
from repro.queries.models import InNetworkTreeModel
from repro.queries.models.base import CostEstimate


def make_runtime(**kw):
    kw.setdefault("n_sensors", 16)
    kw.setdefault("area_m", 30.0)
    kw.setdefault("seed", 8)
    kw.setdefault("noise_std", 0.0)
    kw.setdefault("grid_resolution", 12)
    return PervasiveGridRuntime(**kw)


class RefusingDecisionMaker:
    """A decision maker that never finds a feasible model."""

    def decide(self, query, ctx, targets):
        return None

    def feedback(self, *args):
        raise AssertionError("feedback must not be called without a decision")


class TestOneShot:
    def test_no_feasible_model_outcome(self):
        rt = make_runtime()
        executor = QueryExecutor(rt.ctx, RefusingDecisionMaker())
        got = []
        executor.submit("SELECT AVG(value) FROM sensors", got.append)
        rt.sim.run()
        (outcomes,) = got
        assert not outcomes[0].success
        assert outcomes[0].error == "no feasible model"

    def test_submit_accepts_query_objects(self):
        rt = make_runtime()
        q = parse_query("SELECT AVG(value) FROM sensors")
        got = []
        rt.executor.submit(q, got.append)
        rt.sim.run()
        assert got[0][0].success

    def test_submitted_counter(self):
        rt = make_runtime()
        rt.query("SELECT AVG(value) FROM sensors")
        rt.query("SELECT AVG(value) FROM sensors")
        assert rt.executor.submitted == 2

    def test_ground_truth_for_multi_select_is_skipped(self):
        rt = make_runtime()
        out = rt.query("SELECT {AVG(value), MAX(value)} FROM sensors")
        assert out[0].success
        assert math.isnan(out[0].rel_error)  # no single ground truth

    def test_unknown_arbitrary_function_runs(self):
        """'we allow for any arbitrary function' -- even unregistered ones."""
        rt = make_runtime()
        out = rt.query("SELECT WAVELETS(value) FROM sensors")
        assert out[0].success
        assert out[0].query_class is QueryClass.COMPLEX


class TestContinuous:
    def test_epoch_spacing(self):
        rt = make_runtime()
        times = []
        rt.submit("SELECT AVG(value) FROM sensors EPOCH DURATION 7 FOR 28",
                  lambda o: None, on_epoch=lambda o: times.append(rt.sim.now))
        rt.sim.run(until=60.0)
        assert len(times) == 4
        gaps = [b - a for a, b in zip(times, times[1:])]
        assert all(g == pytest.approx(7.0, abs=0.5) for g in gaps)

    @pytest.mark.parametrize(
        "epoch, duration, expected",
        [
            ("0.1", "0.7", 7),   # 0.7 / 0.1 == 6.999... under floats
            ("0.2", "0.6", 3),   # 0.6 / 0.2 == 2.999...
            ("1.1", "3.3", 3),   # 3.3 / 1.1 == 2.999...
        ],
    )
    def test_epoch_count_survives_float_truncation(self, epoch, duration, expected):
        """Non-representable epoch lengths must not drop the last epoch.

        Pre-fix, ``int(duration_s / epoch_s)`` truncated 9.999... to 9
        and the final epoch silently vanished.
        """
        rt = make_runtime()
        got = []
        rt.submit(
            f"SELECT AVG(value) FROM sensors EPOCH DURATION {epoch} FOR {duration}",
            got.append)
        rt.sim.run(until=600.0)
        assert got, "continuous query must complete"
        assert len(got[0]) == expected

    def test_max_epochs_cap_without_duration(self):
        rt = make_runtime()
        rt.executor.max_epochs = 3
        got = []
        rt.submit("SELECT AVG(value) FROM sensors EPOCH DURATION 1", got.append)
        rt.sim.run(until=30.0)
        assert len(got[0]) == 3

    def test_stops_when_network_dies(self):
        rt = make_runtime(battery_j=2e-4)
        got = []
        rt.submit("SELECT AVG(value) FROM sensors EPOCH DURATION 1 FOR 10000",
                  got.append)
        rt.sim.run(until=20000.0)
        assert got, "query must terminate when the network dies"
        assert len(got[0]) < 10000

    def test_dissemination_amortized_across_epochs(self):
        """Epoch 0 pays the query flood; later epochs do not (TAG)."""
        rt = make_runtime()
        epochs = []
        rt.submit("SELECT AVG(value) FROM sensors EPOCH DURATION 5 FOR 25",
                  lambda o: None, on_epoch=epochs.append)
        rt.sim.run(until=60.0)
        assert len(epochs) == 5
        assert epochs[0].energy_j > 3 * epochs[1].energy_j
        later = [e.energy_j for e in epochs[1:]]
        assert max(later) < 2 * min(later)

    def test_distinct_queries_each_pay_dissemination(self):
        rt = make_runtime()
        a = rt.query("SELECT AVG(value) FROM sensors")[0]
        b = rt.query("SELECT MAX(value) FROM sensors")[0]
        # different query text -> separate flood for each
        assert a.energy_j > 1e-3 and b.energy_j > 1e-3

    def test_repeated_identical_query_amortizes(self):
        rt = make_runtime()
        first = rt.query("SELECT AVG(value) FROM sensors")[0]
        second = rt.query("SELECT AVG(value) FROM sensors")[0]
        assert second.energy_j < first.energy_j / 3

    def test_distinct_programmatic_queries_each_pay_dissemination(self):
        """Queries built without text all have ``raw == ""``; running one
        must not mark another as already flooded."""
        rt = make_runtime()
        avg = Query(select=(SelectItem("value", "AVG"),))
        peak = Query(select=(SelectItem("value", "MAX"),))
        tree = InNetworkTreeModel()
        targets = rt.deployment.alive_sensor_ids()
        fresh = tree.estimate(peak, rt.ctx, targets)
        rt.executor.submit(avg, lambda o: None)
        rt.sim.run()
        assert tree.estimate(peak, rt.ctx, targets).energy_j == fresh.energy_j
        assert rt.ctx.is_disseminated(avg) and not rt.ctx.is_disseminated(peak)


class TestFeedbackLoop:
    def test_feedback_receives_actuals(self):
        feedbacks = []

        class Spy:
            def __init__(self, inner):
                self.inner = inner

            def decide(self, *a):
                return self.inner.decide(*a)

            def feedback(self, query, ctx, targets, decision, energy, time):
                feedbacks.append((decision.model.name, energy, time))

        rt = make_runtime()
        rt.executor.decision_maker = Spy(rt.decision_maker)
        rt.query("SELECT AVG(value) FROM sensors")
        (fb,) = feedbacks
        assert fb[1] > 0 and fb[2] > 0

    def test_estimates_infeasible_constant(self):
        assert not CostEstimate.INFEASIBLE.feasible
        assert math.isinf(CostEstimate.INFEASIBLE.time_s)
