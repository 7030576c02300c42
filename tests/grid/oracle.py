"""Reference grid site: job completions as closures.

:class:`~repro.grid.resource.GridResource` schedules one slotted
completion record per job.  :class:`ReferenceResource` is the form that
replaced: ``submit`` builds a ``complete`` or ``fail`` closure over the
submission's state and schedules that.  Both draw the same failures from
the same generator, so tests can assert the record produces *exactly*
what the closures produce: the same results, callback order and times,
site tallies, checkpoints and spans.
"""

from __future__ import annotations

from repro.grid.job import JobResult
from repro.grid.resource import GridResource
from repro.observability.tracer import NOOP_SPAN, STATUS_ERROR


class ReferenceResource(GridResource):
    """Same constructor and surface as :class:`GridResource`."""

    def submit(self, job, on_complete=None):
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
            progress = 1.0 - float(self.rng.uniform(0.0, 1.0))
            service *= progress
            finished = started + service
            self._free_at = finished
            self.busy_seconds += service

            def fail():
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

        def complete():
            value = job.compute() if job.compute is not None else None
            self.jobs_completed += 1
            span.end()
            if on_complete is not None:
                on_complete(JobResult(job.job_id, value, submitted, started, finished,
                                      self.name))

        self.sim.schedule(finished - submitted, complete, label="job")
        return finished
