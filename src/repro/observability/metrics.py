"""Namespaced metric conventions over the :class:`~repro.simkernel.monitor.Monitor`.

This module is the single place where metric names are legislated:

* :data:`CONVENTIONS` -- the catalog of instruments, each a
  :class:`MetricSpec` (``<subsystem>.<noun>[_<unit>]``, instrument type,
  unit, description), named as the recording sites record them.
* :func:`rollup_by_subsystem` -- a monitor summary grouped by namespace
  for the report CLI and the examples' end-of-run tables.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.simkernel.monitor import Monitor

#: Known instrument types (mirrors the Monitor's accessors).
INSTRUMENTS = ("counter", "gauge", "histogram", "series")


@dataclasses.dataclass(frozen=True)
class MetricSpec:
    """One canonical instrument.

    Attributes
    ----------
    name:
        Canonical dotted name; the first component is the subsystem.
    instrument:
        One of :data:`INSTRUMENTS`.
    unit:
        Unit suffix convention (``"1"`` for dimensionless counts).
    description:
        What the number means.
    """

    name: str
    instrument: str
    unit: str
    description: str

    def __post_init__(self) -> None:
        if self.instrument not in INSTRUMENTS:
            raise ValueError(f"instrument must be one of {INSTRUMENTS}")
        if "." not in self.name:
            raise ValueError("canonical metric names are '<subsystem>.<rest>'")

    @property
    def subsystem(self) -> str:
        return self.name.split(".", 1)[0]


def _catalog(specs: typing.Iterable[MetricSpec]) -> dict[str, MetricSpec]:
    out: dict[str, MetricSpec] = {}
    for spec in specs:
        if spec.name in out:
            raise ValueError(f"duplicate metric {spec.name!r}")
        out[spec.name] = spec
    return out


#: The canonical instrument catalog.
CONVENTIONS: dict[str, MetricSpec] = _catalog([
    # network
    MetricSpec("net.sent", "counter", "1", "unicast messages submitted"),
    MetricSpec("net.delivered", "counter", "1", "unicast messages delivered"),
    MetricSpec("net.dropped", "counter", "1", "unicast messages dropped"),
    MetricSpec("net.hops", "counter", "1", "hops traversed by delivered messages"),
    MetricSpec("net.node_deaths", "counter", "1", "nodes killed by battery depletion"),
    MetricSpec("net.latency", "series", "s", "per-delivery end-to-end latency"),
    MetricSpec("net.route_cache.hits", "counter", "1", "route queries answered from cache"),
    MetricSpec("net.route_cache.misses", "counter", "1", "route queries that ran a fresh BFS"),
    MetricSpec("net.route_cache.invalidations", "counter", "1",
               "cache flushes caused by topology changes"),
    MetricSpec("net.energy_j", "counter", "J", "radio energy drawn from batteries"),
    # queries
    MetricSpec("queries.submitted", "counter", "1", "queries accepted by the executor"),
    MetricSpec("queries.epochs", "counter", "1", "query epochs executed"),
    MetricSpec("queries.failed", "counter", "1", "epochs that produced no answer"),
    MetricSpec("queries.latency", "histogram", "s", "per-epoch turnaround"),
    # grid
    MetricSpec("grid.jobs_dispatched", "counter", "1", "jobs dispatched to a site"),
    MetricSpec("grid.uplink_transfers", "counter", "1", "WAN transfers started"),
    MetricSpec("grid.queue_wait", "histogram", "s", "job queue waits"),
    # discovery (the replicated, event-sourced registry + broker group)
    MetricSpec("disc.advertise", "counter", "1", "advertisements appended (incl. refreshes)"),
    MetricSpec("disc.search", "counter", "1", "registry searches served"),
    MetricSpec("disc.withdraw", "counter", "1", "descriptions withdrawn (name or dead host)"),
    MetricSpec("disc.replay_events", "counter", "1",
               "log events replayed by catching-up registry views"),
    MetricSpec("disc.broker_down", "counter", "1", "active-broker losses"),
    MetricSpec("disc.failover", "counter", "1", "standby promotions completed"),
    MetricSpec("disc.failover_time", "histogram", "s",
               "outage length from active loss to standby promotion"),
    MetricSpec("disc.lookup_latency", "histogram", "s",
               "client-observed discovery lookup turnaround"),
    # composition
    MetricSpec("composition.completed", "counter", "1", "composite executions that succeeded"),
    MetricSpec("composition.failed", "counter", "1", "composite executions that failed"),
    MetricSpec("composition.rebinds", "counter", "1", "services re-bound across retries"),
    MetricSpec("composition.timeouts", "counter", "1", "attempt timeouts"),
    # faults
    MetricSpec("faults.injected", "counter", "1", "fault injections fired"),
    MetricSpec("faults.recovered", "counter", "1", "fault recoveries fired"),
    MetricSpec("faults.active", "series", "1", "active faults over time"),
    # resilience
    MetricSpec("resilience.breaker.trips", "counter", "1", "circuit-breaker opens"),
    MetricSpec("resilience.retries", "counter", "1", "retry attempts (all layers)"),
    MetricSpec("resilience.hedges", "counter", "1", "hedged duplicates fired"),
    # wms (the workload-management service: queues + pilots)
    MetricSpec("wms.tasks_submitted", "counter", "1", "tasks accepted by the queue service"),
    MetricSpec("wms.tasks_dispatched", "counter", "1", "tasks claimed by pilots"),
    MetricSpec("wms.tasks_completed", "counter", "1", "tasks that finished successfully"),
    MetricSpec("wms.tasks_failed", "counter", "1", "tasks that failed after all attempts"),
    MetricSpec("wms.tasks_requeued", "counter", "1", "failed tasks returned to the queue"),
    MetricSpec("wms.tasks_starved", "counter", "1",
               "starvation episodes (a class's head wait exceeded the threshold)"),
    MetricSpec("wms.queue_depth", "series", "1", "waiting tasks over time"),
    MetricSpec("wms.queue_latency", "histogram", "s", "submit-to-dispatch waits"),
    MetricSpec("wms.turnaround", "histogram", "s", "submit-to-completion times"),
    # parallel (the trial runner's deterministic reduction)
    MetricSpec("parallel.trials", "counter", "1", "trial worlds reduced into this monitor"),
    MetricSpec("parallel.trial_failures", "counter", "1", "trial worlds that failed in a worker"),
    # slo (the verdict layer watching all of the above)
    MetricSpec("slo.evaluations", "counter", "1", "SLO evaluation ticks executed"),
    MetricSpec("slo.alerts_fired", "counter", "1", "SLO alerts transitioned to firing"),
    MetricSpec("slo.alerts_resolved", "counter", "1", "SLO alerts resolved"),
    MetricSpec("slo.breached", "series", "1", "concurrently-firing SLOs over time"),
    # obs (telemetry watching itself: bounded tracing + trace sampling)
    MetricSpec("obs.trace.dropped", "counter", "1",
               "trace records evicted by the max_records ring"),
    MetricSpec("obs.sampling.traces_emitted", "counter", "1",
               "root spans (traces) started"),
    MetricSpec("obs.sampling.traces_retained", "counter", "1",
               "traces retained (head, tail, or exemplar)"),
    MetricSpec("obs.sampling.traces_dropped", "counter", "1",
               "traces dropped after tail inspection"),
    MetricSpec("obs.sampling.spans_emitted", "counter", "1",
               "span records offered to the sampler"),
    MetricSpec("obs.sampling.spans_retained", "counter", "1",
               "span records retained after sampling"),
    MetricSpec("obs.sampling.spans_dropped", "counter", "1",
               "span records dropped by sampling"),
    MetricSpec("obs.sampling.head_kept", "counter", "1",
               "traces kept by deterministic head sampling"),
    MetricSpec("obs.sampling.tail_kept", "counter", "1",
               "traces kept by tail rules (error / SLO alert / slow outlier)"),
    MetricSpec("obs.sampling.exemplars_kept", "counter", "1",
               "happy-path traces kept by the seeded exemplar reservoir"),
])


def rollup_by_subsystem(monitor: Monitor) -> dict[str, dict[str, typing.Any]]:
    """The monitor's summary grouped by leading namespace, both levels sorted."""
    grouped: dict[str, dict[str, typing.Any]] = {}
    for name, value in monitor.summary().items():
        grouped.setdefault(name.split(".", 1)[0], {})[name] = value
    return {sub: dict(sorted(vals.items())) for sub, vals in sorted(grouped.items())}
