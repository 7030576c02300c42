"""Pilot-style workers: sites pull matched work from the central queue.

A :class:`PilotWorker` is the inversion the DIRAC model brings: instead
of a scheduler *pushing* jobs at sites, each site runs a lightweight
pilot that *pulls* the next matching task whenever it has capacity.  The
pilot describes its site (rate, backlog, breaker health) on every pull
that finds work waiting, so matching always sees fresh state, and it
runs one task at a time -- backlog accumulates in the central queue
where the fair-share policy can see it, not in per-site FIFOs where it
cannot.

Pilots are ordinary simulator actors: they start via a zero-delay event,
park on the queue when it is empty, and wake through scheduled events,
so the whole fleet's behaviour is part of the deterministic event order.
A pilot whose claim refuses waiting work (the head's requirements reject
its site, or its breaker is open) parks too, and passes its wake on to
the longest-parked pilot (:meth:`~repro.wms.queues.TaskQueueService.pass_on`).
When every parked pilot has refused and a breaker on the pilots' board
is open, the queue wakes them again when the first such breaker
half-opens (:meth:`~repro.wms.queues.TaskQueueService.wake_at`).

Each pilot's requeue of a failed compute task is the grid's one retry
loop: the task goes back to the central queue carrying its checkpointed
job, so whichever site claims it next runs only the remaining work.

A compute task costs the pilot no closure: the pilot keeps its one
task at the site and that task's :class:`~repro.grid.job.ComputeJob` in
attributes, and hands the site its bound ``_job_done``, which takes both
back with the job's result.  The pilot holds the job while it runs.  The
task holds it only after a failure, so the checkpoint rides every
requeue; a task whose job never failed keeps no job.
"""

from __future__ import annotations

import typing

from repro.grid.job import ComputeJob, JobResult
from repro.grid.resource import GridResource
from repro.simkernel import Simulator
from repro.wms.matching import describe
from repro.wms.queues import TaskQueueService
from repro.wms.task import Task

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.breaker import BreakerBoard


class PilotWorker:
    """One site's pull loop against the central task queue.

    Parameters
    ----------
    sim / queue / resource:
        The shared simulator, the central queue, and the site this pilot
        serves.
    breakers:
        Optional breaker board; its health view flows into the pilot's
        :class:`~repro.wms.matching.ResourceDescription`.  A pilot with a
        board polls it on every pull, even when the queue is empty.
    max_attempts:
        Compute tasks that fail at this site are requeued (centrally,
        preserving their submission stamp) until they have been tried
        this many times in total; after that the failure is final.  An
        ``int`` of at least 1 (not a ``bool``).
    """

    def __init__(
        self,
        sim: Simulator,
        queue: TaskQueueService,
        resource: GridResource,
        *,
        breakers: "BreakerBoard | None" = None,
        max_attempts: int = 3,
    ) -> None:
        if (isinstance(max_attempts, bool) or not isinstance(max_attempts, int)
                or max_attempts < 1):
            raise ValueError(f"max_attempts must be an int >= 1, got {max_attempts!r}")
        self.sim = sim
        self.queue = queue
        self.resource = resource
        self.breakers = breakers
        self.max_attempts = max_attempts
        self.tasks_run = 0
        self.tasks_failed = 0
        self._started = False
        self._busy = False
        self._task: Task | None = None  # the compute task at the site
        self._job: ComputeJob | None = None  # and its job

    @property
    def name(self) -> str:
        """The pilot's site name."""
        return self.resource.name

    def start(self) -> None:
        """Begin pulling (idempotent; first pull is a zero-delay event)."""
        if self._started:
            return
        self._started = True
        self.sim.schedule(0.0, self._pull, label=f"pilot:{self.name}:start")

    # ------------------------------------------------------------------
    # the pull loop
    # ------------------------------------------------------------------
    def _pull(self) -> None:
        if self._busy:
            return
        queue = self.queue
        waiting = queue.depth()
        task = None
        if waiting or self.breakers is not None:
            # describe() polls every breaker, and a poll may promote one
            # open -> half-open, so a board is polled even with no work;
            # a claim against an empty queue would find nothing
            desc = describe(self.resource, self.breakers)
            if waiting:
                task = queue.claim(desc)
                if task is None:
                    # this site refused the work: a pilot parked behind
                    # this one may take it.  When none is left to ask,
                    # ask again as the first open breaker half-opens.
                    if not queue.pass_on(self._pull) and self.breakers is not None:
                        time = self.breakers.next_half_open()
                        if time is not None:
                            queue.wake_at(time)
                    return
        if task is None:
            queue.park(self._pull)
            return
        self._busy = True
        if task.run is not None:
            task.run(lambda success, _t=task: self._finish(_t, success))
        else:
            job = task.job  # set only if an earlier attempt failed
            if job is None:
                job = ComputeJob(task.ops, task.input_bits, task.output_bits,
                                 None, task.name)
            self._task = task
            self._job = job
            self.resource.submit(job, self._job_done)

    def _job_done(self, result: JobResult) -> None:
        task = self._task
        job = self._job
        self._task = self._job = None
        if not result.success:
            # the task carries the checkpointed job from here on, so a
            # requeue only pays for the remaining work
            task.job = job
            if task.attempts < self.max_attempts:
                self._busy = False
                self.queue.requeue(task)
                self._pull()
                return
        self._finish(task, result.success)

    def _finish(self, task: Task, success: bool) -> None:
        self.tasks_run += 1
        if not success:
            self.tasks_failed += 1
        self.queue.report(task, success)
        self._busy = False
        self._pull()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self._busy else ("idle" if self._started else "stopped")
        return f"PilotWorker({self.name!r}, {state}, run={self.tasks_run})"
