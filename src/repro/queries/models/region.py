"""The region-averaging plan: trade accuracy for data transfer.

"depending upon the accuracy of results required, instead of sending
each sensor reading to the grid, one might only send the average reading
from a region (the size of the region depending on the level of accuracy
needed)."

Targets are grouped into the spatial rooms grid; one averaged pseudo-
reading per occupied region travels to the base station (and on to the
grid for complex functions).  The answer is computed from the regional
averages, so it is *approximate*; the expected relative error shrinks as
``regions_per_side`` grows -- the knob COST ``accuracy`` clauses turn.
"""

from __future__ import annotations

import types
import typing

import numpy as np

from repro.grid.job import ComputeJob
from repro.queries.ast import Query
from repro.queries.classifier import QueryClass, base_class
from repro.queries.functions import COMPLEX_FUNCTIONS
from repro.queries.models import collection
from repro.queries.models.base import (
    CostEstimate,
    ExecutionModel,
    ModelOutcome,
    QueryContext,
    QUERY_BITS,
    READING_BITS,
    RESULT_BITS,
)
from repro.sensors.node import Reading


class RegionAverageModel(ExecutionModel):
    """Regional averages instead of raw readings; compute at grid/base.

    Parameters
    ----------
    regions_per_side:
        Granularity of the averaging grid (higher = more accurate, more
        data).
    """

    name = "region"
    contention_coeff = 0.25

    def __init__(self, regions_per_side: int = 3) -> None:
        if regions_per_side < 1:
            raise ValueError("regions_per_side must be positive")
        self.regions_per_side = regions_per_side

    def supports(self, query: Query, ctx: QueryContext) -> bool:
        """Averaging-compatible queries: AVG/SUM/COUNT aggregates and
        complex functions (which interpolate anyway).  MAX/MIN/MEDIAN
        would be badly biased by averaging; simple lookups gain nothing."""
        cls = base_class(query)
        if cls is QueryClass.SIMPLE:
            return False
        ok_aggs = {"AVG", "SUM", "COUNT"}
        for f in query.functions:
            if f in ok_aggs or f in COMPLEX_FUNCTIONS:
                continue
            return False
        return True

    # ------------------------------------------------------------------
    def _region_of(self, ctx: QueryContext, pos: np.ndarray) -> int:
        cell = ctx.deployment.area_m / self.regions_per_side
        col = min(int(pos[0] / cell), self.regions_per_side - 1)
        row = min(int(pos[1] / cell), self.regions_per_side - 1)
        return row * self.regions_per_side + col

    def _members(self, ctx: QueryContext, targets: list[int]):
        """The member phase for ``targets``, computed once per topology
        version: ``(groups, reps, per_node, messages)`` -- region -> its
        targets, one relay per region, the member sends' energy per node
        (read-only) and their count."""
        dep = ctx.deployment
        key = ("region-members", self.regions_per_side, dep.area_m, tuple(targets),
               dep.energy_model)
        return dep.topology.memo(key, self._member_phase, ctx, targets)

    def _member_phase(self, ctx: QueryContext, targets: list[int]):
        groups: dict[int, list[int]] = {}
        for t in targets:
            pos = ctx.deployment.topology.position_of(t)
            groups.setdefault(self._region_of(ctx, pos), []).append(t)
        # one relay sensor per occupied region (lowest id: deterministic);
        # members send one reading to their region representative
        # (single-hop cluster assumption, as in LEACH), then reps send one
        # averaged record to the base
        topo = ctx.deployment.topology
        em = ctx.deployment.energy_model
        per_node = np.zeros(topo.n_nodes)
        member_msgs = 0
        for region, members in groups.items():
            rep = min(members)
            for m in members:
                if m == rep:
                    continue
                d = topo.distance(m, rep)
                per_node[m] += em.tx_cost(READING_BITS, d)
                per_node[rep] += em.rx_cost(READING_BITS) + em.cpu_cost(10.0)
                member_msgs += 1
        return (types.MappingProxyType({r: tuple(m) for r, m in groups.items()}),
                tuple(min(members) for members in groups.values()),
                collection.read_only(per_node), member_msgs)

    def _pieces(self, query: Query, ctx: QueryContext, targets: list[int]):
        groups, reps, per_node, member_msgs = self._members(ctx, targets)
        flood = self._flood_cost(query, ctx)
        rep_collect = collection.raw_collection(ctx.deployment, reps, READING_BITS * 2)
        member_latency = ctx.deployment.radio.hop_time(READING_BITS)
        # complex parts go to the grid when reachable; during an uplink
        # outage the base station computes them instead (slower, but the
        # regional reduction keeps the input small -- graceful degradation)
        needs_grid = any(f in COMPLEX_FUNCTIONS for f in query.functions) and ctx.grid.online
        n_regions = len(groups)
        ops = self.compute_ops(query, ctx, n_regions)
        if needs_grid:
            job = ComputeJob(ops=ops, input_bits=rep_collect.bits_total,
                             output_bits=COMPLEX_FUNCTIONS["DISTRIBUTION"]["output_bits_per_point"]
                             * ctx.grid_resolution**2)
            compute_s = ctx.grid.estimate_offload_time(job)
        else:
            compute_s = ops / ctx.base_rate
        result_s = ctx.deployment.radio.hop_time(RESULT_BITS)
        return groups, reps, flood, per_node, member_msgs, member_latency, rep_collect, ops, compute_s, result_s

    def _expected_rel_error(self, n_targets: int, n_regions: int) -> float:
        """Coarse error model: averaging n targets into k regions.

        Sub-sampling error shrinks like sqrt(k/n); exact when every
        target is its own region.
        """
        if n_targets <= 0 or n_regions <= 0:
            return 1.0
        if n_regions >= n_targets:
            return 0.0
        return 0.25 * float(np.sqrt(1.0 - n_regions / n_targets))

    def estimate(self, query: Query, ctx: QueryContext, targets: list[int]) -> CostEstimate:
        if not targets or not self.supports(query, ctx):
            return CostEstimate.INFEASIBLE
        (groups, reps, flood, per_node, member_msgs, member_latency,
         rep_collect, ops, compute_s, result_s) = self._pieces(query, ctx, targets)
        if len(rep_collect.participating) <= 1:
            return CostEstimate.INFEASIBLE
        energy = flood.energy_j + float(per_node.sum()) + rep_collect.energy_j
        time = flood.latency_s + member_latency + rep_collect.latency_s + compute_s + result_s
        bits = QUERY_BITS + member_msgs * READING_BITS + rep_collect.bits_total
        return CostEstimate(
            energy_j=energy,
            time_s=time,
            data_bits=bits,
            ops=ops,
            rel_error=self._expected_rel_error(len(targets), len(groups)),
        )

    def execute(
        self,
        query: Query,
        ctx: QueryContext,
        targets: list[int],
        on_complete: typing.Callable[[ModelOutcome], None],
    ) -> None:
        est = self.estimate(query, ctx, targets)
        if not est.feasible:
            on_complete(ModelOutcome(False, None, self.name, 0.0, 0.0, 0.0, 0, "unsupported"))
            return
        (groups, reps, flood, per_node, member_msgs, member_latency,
         rep_collect, ops, compute_s, result_s) = self._pieces(query, ctx, targets)
        time_factor, energy_factor = self._actual_factors(
            ctx, member_msgs + rep_collect.messages + flood.messages,
            collection.mean_target_depth(ctx.deployment, reps),
        )
        self._charge(ctx, flood.per_node_energy + per_node + rep_collect.per_node_energy, energy_factor)
        ctx.mark_disseminated(query)

        # sample all targets, then regionally average into pseudo-readings
        readings = self.filter_readings(query, self._sample_targets(ctx, targets))
        by_region: dict[int, list[Reading]] = {}
        for r in readings:
            pos = ctx.deployment.topology.position_of(r.sensor_id)
            by_region.setdefault(self._region_of(ctx, pos), []).append(r)
        pseudo: list[Reading] = []
        for region, rs in sorted(by_region.items()):
            rep = min(r.sensor_id for r in rs)
            avg = float(np.mean([r.value for r in rs]))
            pseudo.append(Reading(sensor_id=rep, time=ctx.sim.now, value=avg,
                                  attribute=rs[0].attribute))

        wireless_s = (flood.latency_s + member_latency + rep_collect.latency_s) * time_factor
        total_s = wireless_s + compute_s + result_s
        actual_energy = (flood.energy_j + float(per_node.sum()) + rep_collect.energy_j) * energy_factor
        close_collect = self._trace_collect(
            ctx, len(targets), len(readings),
            member_msgs + rep_collect.messages + flood.messages,
            len(rep_collect.participating), wireless_s, bits=rep_collect.bits_total)

        def finish() -> None:
            close_collect(bool(pseudo))
            if not pseudo:
                on_complete(ModelOutcome(False, None, self.name, total_s,
                                         actual_energy, est.data_bits, 0, "no readings"))
                return
            query_adj = query
            value = self._compute_regional_answer(query_adj, ctx, pseudo, groups)
            on_complete(ModelOutcome(True, value, self.name, total_s,
                                     actual_energy, est.data_bits, len(pseudo)))

        ctx.sim.schedule(total_s, finish, label=f"exec:{self.name}")

    def _compute_regional_answer(self, query: Query, ctx: QueryContext,
                                 pseudo: list[Reading], groups: dict[int, list[int]]) -> typing.Any:
        """Evaluate over regional averages; SUM/COUNT re-weighted by
        region populations (an unweighted sum of averages would be
        nonsense)."""
        import numpy as _np

        weights = {min(members): len(members) for members in groups.values()}
        answers: dict[str, typing.Any] = {}
        values = _np.array([r.value for r in pseudo])
        counts = _np.array([weights.get(r.sensor_id, 1) for r in pseudo], dtype=float)
        for item in query.select:
            key = str(item)
            if item.func == "AVG":
                answers[key] = float(_np.average(values, weights=counts))
            elif item.func == "SUM":
                answers[key] = float(_np.sum(values * counts))
            elif item.func == "COUNT":
                answers[key] = float(counts.sum())
            else:
                answers[key] = self.compute_answer(
                    Query(select=(item,), raw=query.raw), ctx, pseudo
                )
        if len(answers) == 1:
            return next(iter(answers.values()))
        return answers
