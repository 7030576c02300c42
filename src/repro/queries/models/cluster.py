"""The cluster plan: LEACH-style heads aggregate, then relay to the base.

"Cluster based models can enable the computation to be carried out in the
sensor network.  Sensors are divided into clusters and each cluster has a
cluster head.  Cluster heads aggregate information from the sensors in
individual clusters and send it to the base station."
"""

from __future__ import annotations

import typing

from repro import checks
from repro.network.routing.cluster import ClusterFormation
from repro.queries.ast import Query
from repro.queries.classifier import QueryClass, base_class
from repro.queries.functions import is_decomposable
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


class ClusterModel(ExecutionModel):
    """Two-tier aggregation: members → heads → base station.

    Heads are re-elected per query round (LEACH rotation), so repeated
    executions spread the head burden -- visible in the lifetime
    experiment (E9).
    """

    name = "cluster"
    contention_coeff = 0.3

    def __init__(self, head_fraction: float = 0.15) -> None:
        self.head_fraction = checks.fraction("head_fraction", head_fraction, open_low=True)

    def supports(self, query: Query, ctx: QueryContext) -> bool:
        """Simple lookups and decomposable aggregates (heads merge)."""
        cls = base_class(query)
        if cls is QueryClass.SIMPLE:
            return True
        if cls is QueryClass.AGGREGATE:
            return all(is_decomposable(f) for f in query.functions)
        return False

    def _form(self, ctx: QueryContext) -> ClusterFormation:
        return ClusterFormation(
            ctx.deployment.topology,
            sink=ctx.deployment.base_station_id,
            rng=ctx.streams.get("clustering"),
            head_fraction=self.head_fraction,
        )

    def _pieces(self, query: Query, ctx: QueryContext, targets: list[int]):
        flood = self._flood_cost(query, ctx)
        formation = self._form(ctx)
        # restrict member transmissions to the targeted sensors: model the
        # non-target members as silent this round
        target_set = set(targets)
        formation.membership = {
            n: h for n, h in formation.membership.items()
            if n in target_set or n in formation.heads
        }
        cost = formation.aggregated_collection(
            READING_BITS, 128.0, ctx.deployment.radio, ctx.deployment.energy_model
        )
        result_s = ctx.deployment.radio.hop_time(RESULT_BITS)
        return flood, formation, cost, result_s

    def estimate(self, query: Query, ctx: QueryContext, targets: list[int]) -> CostEstimate:
        if not targets or not self.supports(query, ctx):
            return CostEstimate.INFEASIBLE
        flood, formation, cost, result_s = self._pieces(query, ctx, targets)
        reached = [t for t in targets if t in cost.participating]
        if not reached:
            return CostEstimate.INFEASIBLE
        return CostEstimate(
            energy_j=flood.energy_j + cost.energy_j,
            time_s=flood.latency_s + cost.latency_s + result_s,
            data_bits=cost.bits_total + QUERY_BITS,
            ops=10.0 * cost.messages,
        )

    def execute(
        self,
        query: Query,
        ctx: QueryContext,
        targets: list[int],
        on_complete: typing.Callable[[ModelOutcome], None],
    ) -> None:
        if not targets or not self.supports(query, ctx):
            on_complete(ModelOutcome(False, None, self.name, 0.0, 0.0, 0.0, 0, "unsupported"))
            return
        flood, formation, cost, result_s = self._pieces(query, ctx, targets)
        reached = [t for t in targets if t in cost.participating]
        if not reached:
            on_complete(ModelOutcome(False, None, self.name, 0.0, 0.0, 0.0, 0, "heads unreachable"))
            return
        time_factor, energy_factor = self._actual_factors(
            ctx, cost.messages + flood.messages,
            collection.mean_target_depth(ctx.deployment, targets),
        )
        self._charge(ctx, flood.per_node_energy + cost.per_node_energy, energy_factor)
        ctx.mark_disseminated(query)
        readings = self.filter_readings(query, self._sample_targets(ctx, reached))
        total_s = (flood.latency_s + cost.latency_s) * time_factor + result_s
        actual_energy = (flood.energy_j + cost.energy_j) * energy_factor
        data_bits = cost.bits_total + QUERY_BITS
        close_collect = self._trace_collect(
            ctx, len(targets), len(readings), cost.messages + flood.messages,
            len(cost.participating), total_s, bits=cost.bits_total)

        def finish() -> None:
            close_collect(bool(readings))
            if not readings:
                on_complete(ModelOutcome(False, None, self.name, total_s,
                                         actual_energy, data_bits, 0, "no readings"))
                return
            value = self.compute_answer(query, ctx, readings)
            on_complete(ModelOutcome(True, value, self.name, total_s,
                                     actual_energy, data_bits, len(readings)))

        ctx.sim.schedule(total_s, finish, label=f"exec:{self.name}")
