"""A grid compute site: a FIFO-queued server with a fixed ops/s rate."""

from __future__ import annotations

import math
import typing

import numpy as np

from repro.observability.tracer import NOOP_SPAN, NOOP_TRACER, STATUS_ERROR
from repro.simkernel import Simulator
from repro.grid.job import ComputeJob, JobResult


class GridResource:
    """One compute site (workstation cluster, supercomputer partition).

    Jobs are served FIFO at ``ops_per_second``.  The site tracks when it
    will next be free, so ``submit`` can be called at any time and the job
    simply queues.

    Parameters
    ----------
    sim:
        Shared simulator.
    name:
        Site name (appears in :class:`~repro.grid.job.JobResult`).
    ops_per_second:
        Effective throughput (finite and positive).
    fail_prob:
        Probability a job fails mid-service at this site.  A failing job
        runs for a uniform fraction of its service time, durably
        checkpoints the work done (advancing ``job.checkpoint_fraction``)
        and reports ``JobResult(success=False, error="site-failure")`` --
        the scheduler's re-submission path picks it up from there.
    rng:
        Failure-draw generator; required when ``fail_prob > 0`` (draw it
        from a named stream so failures are reproducible).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        ops_per_second: float,
        fail_prob: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        if not 0.0 < ops_per_second < math.inf:
            raise ValueError("ops_per_second must be finite and positive")
        if not 0.0 <= fail_prob < 1.0:
            raise ValueError("fail_prob must be in [0, 1)")
        if fail_prob > 0.0 and rng is None:
            raise ValueError("fail_prob > 0 requires an rng for reproducible draws")
        self.sim = sim
        self.name = name
        self.ops_per_second = float(ops_per_second)
        self.fail_prob = float(fail_prob)
        self.rng = rng
        self._free_at = sim.now
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.busy_seconds = 0.0
        #: Instrumentation sinks, wired by :class:`GridInfrastructure`.
        self.tracer = NOOP_TRACER
        self.monitor = None

    @property
    def free_at(self) -> float:
        """Virtual time at which the current queue drains."""
        return max(self._free_at, self.sim.now)

    @property
    def backlog_s(self) -> float:
        """Seconds of queued work ahead of a new submission."""
        return max(self._free_at - self.sim.now, 0.0)

    def service_time(self, job: ComputeJob) -> float:
        """Execution time for ``job``'s remaining work (excludes queueing)."""
        return job.remaining_ops / self.ops_per_second

    def estimate_turnaround(self, job: ComputeJob) -> float:
        """Queue wait + service time if submitted now."""
        return self.backlog_s + self.service_time(job)

    def submit(
        self,
        job: ComputeJob,
        on_complete: typing.Callable[[JobResult], None] | None = None,
    ) -> float:
        """Enqueue ``job``; returns its predicted finish time.

        ``on_complete`` fires (with the :class:`JobResult`) when the job
        finishes or fails; the job's ``compute`` callable runs only on
        success.  A mid-service failure occupies the site for the partial
        service time, checkpoints the completed fraction on the job, and
        reports ``success=False``.
        """
        # free_at and service_time(job), read without the calls
        submitted = self.sim.now
        started = max(self._free_at, submitted)
        service = job.ops * (1.0 - job.checkpoint_fraction) / self.ops_per_second
        if self.monitor is not None:
            self.monitor.histogram("grid.queue_wait").observe(started - submitted)
        span = NOOP_SPAN
        if self.tracer.enabled:
            span = self.tracer.span("grid.job", job_id=job.job_id, site=self.name,
                                    ops=job.remaining_ops, wait_s=started - submitted)
        fails = self.fail_prob > 0.0 and float(self.rng.random()) < self.fail_prob
        if fails:
            # dies a uniform way through the remaining work; everything up
            # to that point is checkpointed.  Drawn from the open-at-zero
            # interval (0, 1]: uniform() can return exactly 0.0, which
            # would make a zero-duration, zero-checkpoint failure whose
            # span has started == finished
            progress = 1.0 - float(self.rng.uniform(0.0, 1.0))
            service *= progress
            finished = started + service
            self._free_at = finished
            self.busy_seconds += service

            def fail() -> None:
                job.checkpoint_fraction += (1.0 - job.checkpoint_fraction) * progress
                self.jobs_failed += 1
                if self.tracer.enabled:
                    span.set(checkpoint=job.checkpoint_fraction)
                span.end(STATUS_ERROR)
                if on_complete is not None:
                    on_complete(JobResult(job.job_id, None, submitted, started, finished,
                                          self.name, False, "site-failure"))

            self.sim.schedule(finished - submitted, fail, label="job:fail")
            return finished

        finished = started + service
        self._free_at = finished
        self.busy_seconds += service

        def complete() -> None:
            value = job.compute() if job.compute is not None else None
            self.jobs_completed += 1
            span.end()
            if on_complete is not None:
                on_complete(JobResult(job.job_id, value, submitted, started, finished,
                                      self.name))

        self.sim.schedule(finished - submitted, complete, label="job")
        return finished

    def utilization(self, horizon_s: float) -> float:
        """Busy fraction over a horizon (for scheduler diagnostics)."""
        if horizon_s <= 0:
            return 0.0
        return min(self.busy_seconds / horizon_s, 1.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridResource({self.name!r}, {self.ops_per_second:.3g} ops/s, backlog={self.backlog_s:.3g}s)"
