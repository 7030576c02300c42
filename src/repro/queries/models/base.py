"""Shared machinery for execution models.

Cost conventions
----------------
* **Reading size**: 64 bits on the wire.
* **Query dissemination**: every in-network plan floods the query once
  (TAG does the same); the flood's cost is part of the estimate.
* **Result delivery**: one hop base station → handheld.
* **Complex-function ops**: the paper's complex query is a *3-D* PDE.
  We actually solve its 2-D analogue (real numbers in the results), but
  *charge* the operation count of the 3-D problem the paper describes:
  ``complex_ops(n) = 50 n^2`` for ``n`` grid points, which puts the solve
  at ~minutes on a workstation-class base station, ~hours on a handheld
  and ~sub-second on the grid -- exactly the paper's qualitative claim.

Estimate vs actual
------------------
Estimates are deterministic analytic costs.  Execution applies two
effects the analytic model ignores, so actuals deviate systematically:

* **MAC contention**: plans that converge many packets on few receivers
  slow down; actual time is scaled by
  ``1 + contention_coeff * messages / alive_nodes`` plus lognormal jitter.
* **Retransmissions**: lossy links force resends; actual time and energy
  scale by ``1 / (1 - loss)^hops_mean`` in expectation, sampled.

The Decision Maker's learned policy can model these (they depend on the
plan and the query), which is how adaptivity pays off (experiment E4).
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

from repro import checks
from repro.grid.infrastructure import GridInfrastructure

from repro.pde.grid import RectGrid
from repro.pde.heat import HeatSolver
from repro.pde.interpolate import anchor_readings
from repro.observability.tracer import NOOP_TRACER, STATUS_ERROR, STATUS_OK, Tracer
from repro.queries.ast import Query
from repro.queries.functions import compute_aggregate, is_aggregate
from repro.sensors.deployment import SensorDeployment
from repro.sensors.node import Reading
from repro.simkernel import RandomStreams

#: Wire size of one encoded reading.
READING_BITS = Reading.SIZE_BITS
#: Wire size of a disseminated query.
QUERY_BITS = 512.0
#: Wire size of a scalar result message.
RESULT_BITS = 256.0


def _noop_closer(ok: bool = True) -> None:
    return None


_NOOP_CLOSER = _noop_closer


def complex_ops(n_grid_points: int) -> float:
    """Charged operation count for the DISTRIBUTION complex function.

    Models the 3-D solve the paper describes (see module docstring); the
    2-D analogue we actually execute is far cheaper, so wall-clock stays
    interactive while simulated time reflects the paper's workload.
    """
    if n_grid_points < 0:
        raise ValueError("n_grid_points must be non-negative")
    return 50.0 * float(n_grid_points) ** 2


@dataclasses.dataclass
class QueryContext:
    """Everything an execution model needs to cost and run a query.

    Attributes
    ----------
    deployment:
        The sensor network (owns the shared simulator).
    grid:
        The wired grid behind the base station.
    handheld_rate / base_rate:
        Compute throughput of the handheld and base station, ops/s.
    streams:
        Random streams (execution noise, clustering).
    grid_resolution:
        PDE grid is ``resolution x resolution`` over the deployment area.
    rooms_per_side:
        Spatial partition used by the ``room`` attribute and by region
        averaging.
    tracer:
        Span/event sink shared by the executor and every execution model
        (default: the shared no-op tracer).
    """

    deployment: SensorDeployment
    grid: GridInfrastructure
    handheld_rate: float = 1e7
    base_rate: float = 1e8
    streams: RandomStreams | None = None
    grid_resolution: int = 40
    rooms_per_side: int = 3
    tracer: Tracer = NOOP_TRACER

    def __post_init__(self) -> None:
        checks.positive("handheld_rate", self.handheld_rate)
        checks.positive("base_rate", self.base_rate)
        checks.count("grid_resolution", self.grid_resolution, 2)
        checks.count("rooms_per_side", self.rooms_per_side, 1)
        if self.streams is None:
            self.streams = self.deployment.streams
        #: queries already flooded into the network, keyed by value (two
        #: queries built without text share ``raw == ""``).  TAG
        #: disseminates a query once; later epochs only collect.
        self._disseminated: set[Query] = set()
        self._heat_solvers: dict[tuple[int, float], HeatSolver] = {}

    def is_disseminated(self, query: Query) -> bool:
        """Whether the network already knows this query (no re-flood)."""
        return query in self._disseminated

    def mark_disseminated(self, query: Query) -> None:
        """Record that this query has been flooded."""
        self._disseminated.add(query)

    def heat_solver(self) -> HeatSolver:
        """The DISTRIBUTION solver for the current grid resolution and
        deployment area (its Laplacian and interior factor are built once
        per solver)."""
        key = (self.grid_resolution, self.deployment.area_m)
        solver = self._heat_solvers.get(key)
        if solver is None:
            res, area = key
            solver = self._heat_solvers[key] = HeatSolver(RectGrid(res, res, area, area))
        return solver

    @property
    def sim(self):
        """The shared simulator."""
        return self.deployment.sim

    @property
    def noise_rng(self) -> np.random.Generator:
        """Execution-noise stream."""
        return self.streams.get("execution-noise")


@dataclasses.dataclass
class CostEstimate:
    """Predicted cost of running a query under one model.

    Attributes
    ----------
    energy_j:
        Total sensor-battery energy.
    time_s:
        Query turnaround.
    data_bits:
        Bits crossing the wireless network (and uplink, for offload).
    ops:
        Computation performed (wherever it runs).
    rel_error:
        Expected relative error of the answer (0 = exact plan).
    feasible:
        False when the plan cannot run (partition, no living targets).
    """

    energy_j: float
    time_s: float
    data_bits: float
    ops: float
    rel_error: float = 0.0
    feasible: bool = True

    INFEASIBLE: typing.ClassVar["CostEstimate"]

    def metric(self, name: str) -> float:
        """Look up a COST-clause metric on this estimate."""
        if name == "energy":
            return self.energy_j
        if name == "time":
            return self.time_s
        if name == "accuracy":
            return self.rel_error
        raise KeyError(f"unknown metric {name!r}")


CostEstimate.INFEASIBLE = CostEstimate(
    energy_j=math.inf, time_s=math.inf, data_bits=math.inf, ops=math.inf,
    rel_error=math.inf, feasible=False,
)


@dataclasses.dataclass
class ModelOutcome:
    """What actually happened when a model executed a query.

    ``value`` is the computed answer: a float for aggregates/simple
    queries, an ``(nx, ny)`` field for DISTRIBUTION, a histogram tuple
    for HISTOGRAM.
    """

    success: bool
    value: typing.Any
    model: str
    time_s: float
    energy_j: float
    data_bits: float
    readings_used: int
    error: str = ""


class ExecutionModel:
    """Interface all execution models implement."""

    #: Registry name (stable across runs; used by the Decision Maker).
    name: str = "abstract"
    #: How strongly this plan's convergecast pattern congests the MAC.
    contention_coeff: float = 0.3
    #: Lognormal sigma of execution-time jitter.
    jitter_sigma: float = 0.08

    def supports(self, query: Query, ctx: QueryContext) -> bool:
        """Whether this model can evaluate ``query`` at all."""
        raise NotImplementedError

    def estimate(self, query: Query, ctx: QueryContext, targets: list[int]) -> CostEstimate:
        """Analytic cost prediction (no side effects)."""
        raise NotImplementedError

    def execute(
        self,
        query: Query,
        ctx: QueryContext,
        targets: list[int],
        on_complete: typing.Callable[[ModelOutcome], None],
    ) -> None:
        """Run the plan in the DES; callback with the outcome."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _flood_cost(self, query: Query, ctx: QueryContext):
        """Query-dissemination cost: zero once the query is in the network."""
        from repro.network.routing.base import DisseminationResult
        from repro.queries.models import collection

        if ctx.is_disseminated(query):
            n = ctx.deployment.topology.n_nodes
            return DisseminationResult(
                reached=set(), messages=0, energy_j=0.0,
                per_node_energy=np.zeros(n), latency_s=0.0,
            )
        return collection.flood_cost(ctx.deployment, QUERY_BITS)

    def _actual_factors(self, ctx: QueryContext, messages: float, mean_hops: float) -> tuple[float, float]:
        """Sample (time_factor, energy_factor) for one execution."""
        rng = ctx.noise_rng
        alive = max(len(ctx.deployment.alive_sensor_ids()), 1)
        contention = 1.0 + self.contention_coeff * messages / alive
        jitter = float(rng.lognormal(0.0, self.jitter_sigma))
        loss = ctx.deployment.radio.loss_prob
        retx_mean = (1.0 / max((1.0 - loss) ** max(mean_hops, 1.0), 1e-6)) - 1.0
        retx = 1.0 + float(rng.exponential(retx_mean)) if retx_mean > 0 else 1.0
        return contention * jitter * retx, retx

    def _charge(self, ctx: QueryContext, per_node_energy: np.ndarray, factor: float = 1.0) -> None:
        """Draw per-node radio energy from the batteries."""
        topo = ctx.deployment.topology
        for node_id in np.flatnonzero(per_node_energy > 0.0):
            node_id = int(node_id)
            battery = ctx.deployment.network.nodes[node_id].battery
            alive = battery.draw(float(per_node_energy[node_id]) * factor)
            if not alive and topo.is_alive(node_id):
                topo.kill(node_id)

    def _sample_targets(self, ctx: QueryContext, targets: list[int]) -> list[Reading]:
        """Sample every target sensor (paying sense energy)."""
        return ctx.deployment.sample_all(sensor_ids=targets)

    def _trace_collect(
        self,
        ctx: QueryContext,
        requested: int,
        returned: int,
        messages: float,
        participating: int,
        wireless_s: float,
        bits: float = 0.0,
    ):
        """Record the sampling event and a ``net.collect`` span covering
        this plan's wireless phase (``[now, now + wireless_s]``).

        Returns a closer ``close(ok=True)`` for the completion callback;
        analytic plans know the phase length up front, so the span is
        stamped with its true end rather than the callback's time.  Free
        (a shared no-op) when tracing is off.
        """
        tracer = ctx.tracer
        if not tracer.enabled:
            return _NOOP_CLOSER
        tracer.event("sensors.sample", requested=requested, returned=returned)
        span = tracer.span("net.collect", messages=messages,
                           participating=participating, bits=bits)
        end_t = ctx.sim.now + wireless_s

        def close(ok: bool = True) -> None:
            span.end_at(end_t, STATUS_OK if ok else STATUS_ERROR)

        return close

    @staticmethod
    def filter_readings(query: Query, readings: list[Reading]) -> list[Reading]:
        """Apply value predicates (attributes the targets step skipped)."""
        value_preds = [p for p in query.where if p.attribute in ("value", "temperature")]
        if not value_preds:
            return readings
        return [r for r in readings if all(p.holds({p.attribute: r.value}) for p in value_preds)]

    # ------------------------------------------------------------------
    # answer computation
    # ------------------------------------------------------------------
    @staticmethod
    def compute_answer(query: Query, ctx: QueryContext, readings: list[Reading]) -> typing.Any:
        """Evaluate the SELECT clause over collected readings."""
        if not readings:
            raise ValueError("no readings to compute over")
        values = np.array([r.value for r in readings])
        positions = np.array([ctx.deployment.topology.position_of(r.sensor_id) for r in readings])
        answers: dict[str, typing.Any] = {}
        for item in query.select:
            key = str(item)
            if item.func is None:
                answers[key] = float(values[0]) if len(values) == 1 else values.copy()
            elif is_aggregate(item.func):
                answers[key] = compute_aggregate(item.func, values)
            elif item.func == "DISTRIBUTION":
                answers[key] = solve_distribution(ctx, positions, values)
            elif item.func == "DISTRIBUTION3D":
                answers[key] = solve_distribution3d(ctx, positions, values)
            elif item.func == "HISTOGRAM":
                counts, edges = np.histogram(values, bins=10)
                answers[key] = (counts, edges)
            else:
                # arbitrary unknown function: defined here as the identity
                # over the collected value vector
                answers[key] = values.copy()
        if len(answers) == 1:
            return next(iter(answers.values()))
        return answers

    @staticmethod
    def compute_ops(query: Query, ctx: QueryContext, n_readings: int) -> float:
        """Charged operation count for evaluating the SELECT clause."""
        ops = 0.0
        for item in query.select:
            if item.func is None:
                ops += 1.0
            elif is_aggregate(item.func):
                ops += 10.0 * n_readings
            elif item.func == "DISTRIBUTION":
                ops += complex_ops(ctx.grid_resolution**2)
            elif item.func == "DISTRIBUTION3D":
                from repro.pde.heat3d import solve3d_ops_estimate

                nz = max(ctx.grid_resolution // 4, 4)
                ops += solve3d_ops_estimate(ctx.grid_resolution**2 * nz)
            elif item.func == "HISTOGRAM":
                ops += 20.0 * n_readings
            else:
                ops += 100.0 * n_readings
        return ops


def solve_distribution(ctx: QueryContext, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The DISTRIBUTION complex function: PDE-solved temperature field.

    Sensor readings become Dirichlet anchors at their nearest grid
    points; the domain boundary takes IDW-interpolated values so the
    field honours the data everywhere (:func:`anchor_readings`).
    """
    solver = ctx.heat_solver()
    bvals, fixed = anchor_readings(solver.grid, positions, values)
    return solver.solve_steady(bvals, fixed_mask=fixed)


def solve_distribution3d(
    ctx: QueryContext,
    positions: np.ndarray,
    values: np.ndarray,
    mount_fraction: float = 0.5,
) -> np.ndarray:
    """The paper's literal query: a 3-D steady solve over the building.

    The 2-D sensor layout is extruded into a box of height
    ``0.25 * area``; sensors anchor the field at their mount height
    (``mount_fraction`` of the way up); the box faces take the sensors'
    IDW-interpolated values extruded vertically.  The horizontal
    resolution follows ``ctx.grid_resolution``; the vertical axis uses a
    quarter of it (buildings are flatter than they are wide).
    """
    from repro.pde.grid3d import BoxGrid
    from repro.pde.heat3d import HeatSolver3D
    from repro.pde.interpolate import idw_interpolate

    area = ctx.deployment.area_m
    height = 0.25 * area
    res = ctx.grid_resolution
    nz = max(res // 4, 4)
    grid = BoxGrid(res, res, nz, area, area, height)

    pts = grid.points()
    horiz = idw_interpolate(positions, values, pts[:, :2]).reshape(grid.shape)
    fixed = grid.boundary_mask()
    bvals = horiz.copy()
    mount_k = min(int(round(mount_fraction * (nz - 1))), nz - 1)
    for pos, val in zip(positions, values):
        i, j, _ = grid.nearest_index(np.array([pos[0], pos[1], 0.0]))
        fixed[i, j, mount_k] = True
        bvals[i, j, mount_k] = val
    return HeatSolver3D(grid).solve_steady(bvals, fixed_mask=fixed)
