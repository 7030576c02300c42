"""A grid compute site: a FIFO-queued server with a fixed ops/s rate.

Each job's end is one scheduled :class:`_Completion` record, for success
and failure alike, rather than a closure.  A closure over a submission's
state is a function object plus one cell per captured name, all tracked
by the cyclic garbage collector; at WMS scale (10^5 jobs per run) those
allocations set the collector's pace, and its full collections were the
slowest host-time slices.  A record with ``__slots__`` is one tracked
object per job in flight.
"""

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
        # the queue's end and service_time(job), read without the calls
        submitted = self.sim.now
        started = max(self._free_at, submitted)
        service = job.ops * (1.0 - job.checkpoint_fraction) / self.ops_per_second
        if self.monitor is not None:
            self.monitor.histogram("grid.queue_wait").observe(started - submitted)
        span = NOOP_SPAN
        if self.tracer.enabled:
            span = self.tracer.span("grid.job", job_id=job.job_id, site=self.name,
                                    ops=job.remaining_ops, wait_s=started - submitted)
        progress = None
        label = "job"
        if self.fail_prob > 0.0 and float(self.rng.random()) < self.fail_prob:
            # dies a uniform way through the remaining work; everything up
            # to that point is checkpointed.  Drawn from the open-at-zero
            # interval (0, 1]: uniform() can return exactly 0.0, which
            # would make a zero-duration, zero-checkpoint failure whose
            # span has started == finished
            progress = 1.0 - float(self.rng.uniform(0.0, 1.0))
            service *= progress
            label = "job:fail"
        finished = started + service
        self._free_at = finished
        self.busy_seconds += service
        self.sim.schedule(finished - submitted,
                          _Completion(self, job, on_complete, span, submitted,
                                      started, finished, progress),
                          label=label)
        return finished

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridResource({self.name!r}, {self.ops_per_second:.3g} ops/s, backlog={self.backlog_s:.3g}s)"


class _Completion:
    """A scheduled job end at one site: the event callback itself.

    ``progress`` is ``None`` for a job that runs to completion, and the
    fraction of the remaining work done before the site failed otherwise.
    """

    __slots__ = ("site", "job", "on_complete", "span", "submitted", "started",
                 "finished", "progress")

    def __init__(self, site: GridResource, job: ComputeJob,
                 on_complete: typing.Callable[[JobResult], None] | None,
                 span: typing.Any, submitted: float, started: float, finished: float,
                 progress: float | None) -> None:
        self.site = site
        self.job = job
        self.on_complete = on_complete
        self.span = span
        self.submitted = submitted
        self.started = started
        self.finished = finished
        self.progress = progress

    def __call__(self) -> None:
        site = self.site
        job = self.job
        progress = self.progress
        if progress is None:
            value = job.compute() if job.compute is not None else None
            site.jobs_completed += 1
            self.span.end()
            result = JobResult(job.job_id, value, self.submitted, self.started,
                               self.finished, site.name)
        else:
            job.checkpoint_fraction += (1.0 - job.checkpoint_fraction) * progress
            site.jobs_failed += 1
            if site.tracer.enabled:
                self.span.set(checkpoint=job.checkpoint_fraction)
            self.span.end(STATUS_ERROR)
            result = JobResult(job.job_id, None, self.submitted, self.started,
                               self.finished, site.name, False, "site-failure")
        if self.on_complete is not None:
            self.on_complete(result)
