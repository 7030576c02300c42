"""The pervasive-grid runtime façade (Figure 1 in one object).

:class:`PervasiveGridRuntime` wires together every subsystem: the sensor
deployment with its physical field, the wired grid behind the base
station, the agent platform with a discovery broker, the execution models
and the Decision Maker, and the query executor.  Examples and benchmarks
build one of these and go.
"""

from __future__ import annotations

import typing

from repro import checks
from repro.agents.platform import AgentPlatform
from repro.core.decision import DecisionMaker, DecisionPolicy, EstimateGreedyPolicy
from repro.discovery.broker import BrokerAgent
from repro.discovery.failover import BrokerGroup
from repro.discovery.log import EventLog
from repro.discovery.matcher import SemanticMatcher
from repro.discovery.ontology import build_service_ontology
from repro.discovery.replica import ReplicatedRegistry
from repro.grid.infrastructure import GridInfrastructure
from repro.network.radio import RadioModel
from repro.observability.profiling import HookProfiler
from repro.observability.sampling import SamplingConfig, TraceSampler
from repro.observability.sketch import TelemetryConfig
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.queries.executor import QueryExecutor, QueryOutcome
from repro.queries.models import ALL_MODELS, QueryContext
from repro.queries.models.base import ExecutionModel
from repro.sensors.deployment import SensorDeployment
from repro.sensors.field import ScalarField
from repro.simkernel import RandomStreams, Simulator

#: Shape of the runtime's replicated discovery store: consistent-hash
#: shards and copies per ontology class (see
#: :class:`~repro.discovery.replica.ReplicatedRegistry`).  Search results
#: are identical at any shape.
_DISCOVERY_SHARDS = 4
_DISCOVERY_REPLICATION = 2


class PervasiveGridRuntime:
    """Everything needed to pose §4 queries against a pervasive grid.

    Parameters
    ----------
    n_sensors / area_m / field / battery_j / radio / n_handhelds:
        Forwarded to :class:`~repro.sensors.deployment.SensorDeployment`.
    seed:
        Root seed; the entire run is reproducible from it.
    policy:
        Decision policy (default: estimate-greedy).
    site_rates:
        Grid site throughputs, ops/s.
    models:
        Execution-model instances (default: one of each registered model).
    grid_resolution:
        PDE grid resolution for complex queries.
    trace:
        When True, the runtime owns an enabled
        :class:`~repro.observability.tracer.Tracer` wired through every
        subsystem (simulator, network, executor, grid, faults); export
        it with :meth:`export_trace`.  Default off: the shared no-op
        tracer, which costs nothing on the record path.
    profile:
        When True, the runtime owns an enabled
        :class:`~repro.observability.profiling.HookProfiler` attached to
        the simulator's dispatch loop, attributing *wall-clock* time per
        handler and subsystem; export it with :meth:`export_profile`.
        Default off: ``sim.profiler`` stays ``None`` and the dispatch
        hot path pays one identity check.  Independent of ``trace`` --
        profiling never touches the Monitor or the trace, so enabling it
        cannot perturb simulated results.
    sampling:
        Optional :class:`~repro.observability.sampling.SamplingConfig`
        (requires ``trace=True``): the tracer retains traces through a
        deterministic head/tail :class:`TraceSampler` instead of keeping
        everything -- error, SLO-violating, and slow-outlier traces are
        always kept, happy-path volume is sampled at the config's head
        rate, plus its seeded exemplars.  Dropped volume is visible
        under the ``obs.sampling.*`` counters and the trace's
        ``obs.sampling.summary`` event.
    telemetry:
        Optional :class:`~repro.observability.sketch.TelemetryConfig`
        bounding the run's telemetry memory: the monitor's
        histogram/series raw tails
        (:meth:`~repro.simkernel.monitor.Monitor.configure`) and the
        tracer's ``max_records`` ring.  The sketches past each raw tail
        have one fixed shape (1% relative error).
    broker_hosts:
        When set, discovery runs as a single-active
        :class:`~repro.discovery.failover.BrokerGroup` with one member
        per entry (the topology node each broker runs on; member 0
        starts active) -- killing the active's host via the fault
        injector triggers standby promotion.  Default None: one
        always-up broker, the pre-failover behavior.
    broker_detection_delay_s:
        Failure-detection delay before the group promotes a standby.
    """

    def __init__(
        self,
        n_sensors: int = 49,
        area_m: float = 60.0,
        field: ScalarField | None = None,
        *,
        seed: int = 0,
        policy: DecisionPolicy | None = None,
        site_rates: typing.Sequence[float] = (1e9, 1e12),
        battery_j: float = 1.0,
        radio: RadioModel | None = None,
        n_handhelds: int = 1,
        models: typing.Sequence[ExecutionModel] | None = None,
        grid_resolution: int = 40,
        placement: str = "grid",
        noise_std: float = 0.5,
        trace: bool = False,
        profile: bool = False,
        sampling: "SamplingConfig | None" = None,
        telemetry: "TelemetryConfig | None" = None,
        broker_hosts: typing.Sequence[int | None] | None = None,
        broker_detection_delay_s: float = 2.0,
    ) -> None:
        if sampling is not None and not trace:
            raise ValueError("sampling= requires trace=True")
        checks.non_negative("broker_detection_delay_s", broker_detection_delay_s)
        self.streams = RandomStreams(seed)
        self.sim = Simulator()
        if trace:
            sampler = TraceSampler(sampling) if sampling is not None else None
            max_records = telemetry.max_trace_records if telemetry is not None else None
            self.tracer = Tracer(self.sim, sampler=sampler,
                                 max_records=max_records)
        else:
            self.tracer = NOOP_TRACER
        self.sim.tracer = self.tracer
        self.profiler = HookProfiler() if profile else None
        self.sim.profiler = self.profiler
        self.deployment = SensorDeployment(
            n_sensors,
            area_m,
            field,
            sim=self.sim,
            streams=self.streams,
            battery_j=battery_j,
            radio=radio,
            n_handhelds=n_handhelds,
            placement=placement,
            noise_std=noise_std,
        )
        self.deployment.network.tracer = self.tracer
        if telemetry is not None:
            self.deployment.monitor.configure(telemetry)
        if trace:
            # obs.trace.* / obs.sampling.* counters land on the run's monitor
            self.tracer.monitor = self.deployment.monitor
        self.grid = GridInfrastructure(self.sim, site_rates=site_rates,
                                       monitor=self.deployment.monitor,
                                       tracer=self.tracer)
        self.ctx = QueryContext(
            deployment=self.deployment,
            grid=self.grid,
            streams=self.streams,
            grid_resolution=grid_resolution,
            tracer=self.tracer,
        )
        self.models = list(models) if models is not None else [cls() for cls in ALL_MODELS]
        self.policy = policy or EstimateGreedyPolicy()
        self.decision_maker = DecisionMaker(self.models, self.policy)
        self.executor = QueryExecutor(self.ctx, self.decision_maker)

        # the service/agent overlay (discovery + composition live here).
        # All discovery state materializes one shared append-only log;
        # the registry façade and every broker view are replayable,
        # deterministic folds of it.
        self.platform = AgentPlatform(self.sim)
        self.ontology = build_service_ontology()
        matcher = SemanticMatcher(self.ontology)
        self.discovery_log = EventLog(clock=lambda: self.sim.now)
        self.registry = ReplicatedRegistry(
            matcher, _DISCOVERY_SHARDS, _DISCOVERY_REPLICATION,
            log=self.discovery_log, monitor=self.deployment.monitor,
            name="runtime")
        self.broker_group: BrokerGroup | None = None
        self._broker: BrokerAgent | None = None
        if broker_hosts is None:
            self._broker = BrokerAgent("broker", self.registry)
            self.platform.register(self._broker)
        else:
            self.broker_group = BrokerGroup(
                self.sim, self.platform, self.discovery_log, matcher,
                broker_hosts, n_shards=_DISCOVERY_SHARDS,
                replication=_DISCOVERY_REPLICATION,
                detection_delay_s=broker_detection_delay_s,
                monitor=self.deployment.monitor, tracer=self.tracer)

    @property
    def broker(self) -> BrokerAgent | None:
        """The broker currently serving the well-known ``"broker"`` name
        (None mid-failover when running with ``broker_hosts``)."""
        if self.broker_group is not None:
            return self.broker_group.active_broker()
        return self._broker

    # ------------------------------------------------------------------
    def fault_injector(self) -> "FaultInjector":
        """A :class:`~repro.faults.FaultInjector` wired to this runtime.

        The fault domain spans the whole stack: the deployment's topology
        and network, the grid uplink, and the radio holders the cost
        estimators read.  Nodes taken down by faults have their service
        advertisements withdrawn from the discovery registry, exactly as
        churn does; when the runtime has a broker group, node deaths and
        recoveries also drive its single-active failover protocol.
        """
        from repro.faults import FaultDomain, FaultInjector

        def on_node_change(node: int, up: bool) -> None:
            if up:
                if self.broker_group is not None:
                    self.broker_group.node_up(node)
            else:
                self.registry.withdraw_host(node)
                if self.broker_group is not None:
                    self.broker_group.node_down(node)

        domain = FaultDomain(
            sim=self.sim,
            monitor=self.deployment.monitor,
            topology=self.deployment.topology,
            network=self.deployment.network,
            uplink=self.grid.uplink,
            radio_holders=(self.deployment,),
            on_node_change=on_node_change,
        )
        return FaultInjector(domain, tracer=self.tracer)

    # ------------------------------------------------------------------
    def workload_manager(
        self,
        *,
        classes: "typing.Sequence | None" = None,
        breakers: "BreakerBoard | None" = None,
        max_attempts: int = 3,
        starvation_s: float = 120.0,
    ) -> "WorkloadManager":
        """A :class:`~repro.wms.service.WorkloadManager` over this runtime.

        The manager's pilots run on this runtime's grid sites, its queue
        reports into the runtime's monitor/tracer, and its
        :meth:`~repro.wms.service.WorkloadManager.submit_query` surface
        drives the runtime's query executor -- queries from many
        handheld users then share the grid under the fair-share policy
        instead of executing synchronously.  ``breakers`` (when given)
        contributes site health to the pilots' matching descriptions.
        """
        from repro.wms.service import WorkloadManager
        from repro.wms.task import DEFAULT_CLASSES

        return WorkloadManager(
            self.sim,
            self.grid.resources,
            classes=tuple(classes) if classes is not None else DEFAULT_CLASSES,
            monitor=self.monitor,
            tracer=self.tracer,
            breakers=breakers,
            executor=self.executor,
            max_attempts=max_attempts,
            starvation_s=starvation_s,
        )

    # ------------------------------------------------------------------
    def attach_slos(
        self,
        slos: "typing.Sequence | None" = None,
        *,
        interval_s: float = 15.0,
        until_s: float = 3600.0,
    ) -> "SLOEvaluator":
        """Attach an :class:`~repro.observability.slo.SLOEvaluator`.

        Builds an evaluator over this runtime's simulator and monitor
        (default objectives:
        :func:`~repro.observability.slo.default_slos`), registers the
        ``grid.uplink_online`` probe the uplink-availability SLO reads
        plus the ``disc.broker_online`` / ``disc.staleness`` probes the
        discovery SLOs read, and starts evaluation ticks every
        ``interval_s`` of simulated
        time up to ``until_s``.  Alert fire/resolve land on this
        runtime's tracer when it is enabled; call
        :func:`~repro.observability.slo.render_health` on the returned
        evaluator for the end-of-run verdict.
        """
        from repro.observability.slo import SLOEvaluator, default_slos

        evaluator = SLOEvaluator(
            self.sim, self.monitor, list(slos) if slos is not None else default_slos(),
            interval_s=interval_s, tracer=self.tracer,
        )
        uplink = self.grid.uplink
        evaluator.probe("grid.uplink_online",
                        lambda: 1.0 if uplink.online else 0.0)
        group, platform, registry = self.broker_group, self.platform, self.registry
        if group is not None:
            evaluator.probe("disc.broker_online",
                            lambda: 1.0 if group.online() else 0.0)
            evaluator.probe("disc.staleness",
                            lambda: float(group.staleness()))
        else:
            evaluator.probe("disc.broker_online",
                            lambda: 1.0 if platform.is_registered("broker") else 0.0)
            evaluator.probe("disc.staleness", lambda: float(registry.lag))
        return evaluator.start(until_s)

    # ------------------------------------------------------------------
    @property
    def monitor(self):
        """The run's shared :class:`~repro.simkernel.monitor.Monitor`."""
        return self.deployment.monitor

    def export_trace(self, path) -> int:
        """Write the run's trace as JSONL; returns the record count.

        Raises ``RuntimeError`` unless the runtime was built with
        ``trace=True``.
        """
        if not self.tracer.enabled:
            raise RuntimeError("runtime built without trace=True; nothing to export")
        return self.tracer.export(path)

    def export_profile(self, path) -> int:
        """Write the run's wall-clock profile as JSON; returns the
        handler count.

        Raises ``RuntimeError`` unless the runtime was built with
        ``profile=True``.
        """
        if self.profiler is None:
            raise RuntimeError("runtime built without profile=True; nothing to export")
        return self.profiler.write(path)

    # ------------------------------------------------------------------
    def submit(
        self,
        query_text: str,
        on_complete: typing.Callable[[list[QueryOutcome]], None],
        on_epoch: typing.Callable[[QueryOutcome], None] | None = None,
    ) -> None:
        """Asynchronous submission (caller drives the simulator)."""
        self.executor.submit(query_text, on_complete, on_epoch)

    def query(self, query_text: str, horizon_s: float = 1e7) -> list[QueryOutcome]:
        """Synchronous convenience: submit, simulate, return outcomes.

        Advances the shared simulator until the query completes (bounded
        by ``horizon_s`` of virtual time).
        """
        done: list[list[QueryOutcome]] = []
        self.executor.submit(query_text, done.append)
        deadline = self.sim.now + horizon_s
        # step event by event so the clock stops at the completion event
        # (a chunked run() would overshoot into any background activity)
        while not done and self.sim.now < deadline:
            if not self.sim.step():
                break  # heap empty; query cannot finish
        if not done:
            raise TimeoutError(f"query did not complete within {horizon_s} s of virtual time")
        return done[0]

    # ------------------------------------------------------------------
    def energy_consumed_j(self) -> float:
        """Total sensor energy drawn so far."""
        return self.deployment.total_sensor_energy_consumed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PervasiveGridRuntime(sensors={self.deployment.n_sensors}, "
            f"policy={self.policy.name}, t={self.sim.now:.3g}s)"
        )
