"""The grid façade: sites + scheduler + uplink in one object."""

from __future__ import annotations

import math
import typing

from repro.observability.tracer import NOOP_SPAN, NOOP_TRACER, STATUS_ERROR, Tracer
from repro.simkernel import Monitor, Simulator
from repro.grid.job import ComputeJob, JobResult
from repro.grid.resource import GridResource
from repro.grid.scheduler import GridScheduler
from repro.grid.uplink import Uplink


class GridInfrastructure:
    """Everything behind the base station's uplink.

    Parameters
    ----------
    sim:
        Shared simulator.
    site_rates:
        ops/second of each compute site (default: one workstation-class
        and one supercomputer-class site, the paper's "from the ASCI
        terraflop machines to workstations" span).
    uplink:
        WAN link from the base station (default 10 Mb/s, 50 ms).

    The canonical offload pattern is :meth:`offload`: upload input bits,
    run the job on the best site, download output bits, then invoke the
    caller's callback.  :meth:`estimate_offload_time` predicts the same
    pipeline without executing it -- the Decision Maker compares this
    estimate against in-network execution.
    """

    def __init__(
        self,
        sim: Simulator,
        site_rates: typing.Sequence[float] = (1e9, 1e12),
        uplink: Uplink | None = None,
        monitor: Monitor | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.resources = [
            GridResource(sim, name=f"site{i}", ops_per_second=rate)
            for i, rate in enumerate(site_rates)
        ]
        self.scheduler = GridScheduler(self.resources)
        self.uplink = uplink or Uplink(sim)
        self.monitor = monitor
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.set_instrumentation(self.monitor, self.tracer)

    def set_instrumentation(self, monitor: Monitor | None, tracer: Tracer | None) -> None:
        """Point the whole grid (sites, scheduler, uplink) at one
        monitor/tracer pair; either may be None/no-op."""
        self.monitor = monitor
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        for part in (self.scheduler, self.uplink, *self.resources):
            part.monitor = monitor
            part.tracer = self.tracer

    # ------------------------------------------------------------------
    @property
    def online(self) -> bool:
        """Whether the grid is reachable through the uplink."""
        return self.uplink.online

    def estimate_offload_time(self, job: ComputeJob) -> float:
        """Predicted upload + queue + compute + download time for ``job``.

        ``math.inf`` during an uplink outage -- planners comparing
        offload against local execution then never pick the grid.
        """
        if not self.uplink.online:
            return math.inf
        upload = self.uplink.transfer_time(job.input_bits)
        compute = self.scheduler.estimate_turnaround(job)
        download = self.uplink.transfer_time(job.output_bits)
        return upload + compute + download

    def offload(
        self,
        job: ComputeJob,
        on_complete: typing.Callable[[JobResult], None] | None = None,
        on_failure: typing.Callable[[str], None] | None = None,
        max_attempts: int = 1,
    ) -> None:
        """Run ``job`` on the grid: upload, execute, download, callback.

        Failures (uplink offline at either transfer leg, or the job
        failing on-site with attempts exhausted) invoke ``on_failure``
        with a reason tag; without an ``on_failure`` the uplink's
        ``RuntimeError`` propagates as before.  ``max_attempts`` enables
        checkpointed re-submission across sites (see
        :meth:`GridScheduler.submit`).
        """

        tracer = self.tracer
        span = NOOP_SPAN
        if tracer.enabled:
            span = tracer.span("grid.offload", job_id=job.job_id, ops=job.ops,
                               input_bits=job.input_bits, output_bits=job.output_bits)

        def leg(bits: float, then: typing.Callable[[], None]) -> None:
            if not self.uplink.online and not self.uplink.queue_when_offline:
                if tracer.enabled:
                    span.set(fail_reason="uplink-offline")
                span.end(STATUS_ERROR)
                if on_failure is None:
                    raise RuntimeError("uplink is offline")
                on_failure("uplink-offline")
                return
            with tracer.use(span):
                self.uplink.transfer(bits, then)

        def after_upload() -> None:
            def after_compute(result: JobResult) -> None:
                if not result.success:
                    if tracer.enabled:
                        span.set(fail_reason=result.error or "job-failed",
                                 site=result.resource)
                    span.end(STATUS_ERROR)
                    if on_failure is not None:
                        on_failure(result.error or "job-failed")
                    elif on_complete is not None:
                        on_complete(result)
                    return

                def after_download() -> None:
                    if tracer.enabled:
                        span.set(site=result.resource)
                    span.end()
                    if on_complete is not None:
                        # re-stamp finish time to include the download leg
                        on_complete(result._replace(finished_at=self.sim.now))

                leg(job.output_bits, after_download)

            profiler = self.sim.profiler
            if profiler is not None and profiler.enabled:
                # site selection is the grid's wall-clock cost; frame it so
                # the flamegraph separates scheduling from event dispatch
                with profiler.frame("grid.schedule", "grid"):
                    self.scheduler.submit(job, after_compute, max_attempts=max_attempts)
            else:
                self.scheduler.submit(job, after_compute, max_attempts=max_attempts)

        leg(job.input_bits, after_upload)

    def fastest_rate(self) -> float:
        """ops/second of the fastest site (used by cost estimators)."""
        return max(r.ops_per_second for r in self.resources)
