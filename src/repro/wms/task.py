"""Task descriptions for the workload-management service.

A :class:`Task` is the WMS's unit of work: what a handheld user's query
becomes once it enters the central queue.  Unlike a
:class:`~repro.grid.job.ComputeJob` (which is already bound to a site),
a task carries *who* wants the work (``owner``), *how urgent* it is
(``priority_class``), and *what it needs from a site*
(:class:`~repro.wms.matching.TaskRequirements`) -- the declarative half
of the DIRAC-style job→resource matching the pilots perform.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import typing

from repro import checks
from repro.grid.job import ComputeJob
from repro.wms.matching import NO_REQUIREMENTS, TaskRequirements

#: Task lifecycle states, in order.
TASK_STATES = ("waiting", "running", "done", "failed")

_task_ids = itertools.count()


@dataclasses.dataclass(frozen=True)
class PriorityClass:
    """One fair-share class: a name and a service weight.

    Weights are relative shares of *work* (operations), not task counts:
    a class with weight 6 drains six times the ops per unit of contended
    time as a class with weight 1.  Order of declaration is the
    deterministic tie-break when virtual times collide.
    """

    name: str
    weight: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("priority classes need a name")
        checks.positive("weight", self.weight)


#: The default three-tier catalog: handheld interactive queries beat
#: standing monitoring queries beat bulk analytics backfills.
DEFAULT_CLASSES = (
    PriorityClass("interactive", 6.0),
    PriorityClass("standard", 3.0),
    PriorityClass("bulk", 1.0),
)


@dataclasses.dataclass(slots=True)
class Task:
    """One unit of queued work.

    Attributes
    ----------
    ops:
        Abstract operation count (the fair-share currency and, for
        compute tasks, the :class:`~repro.grid.job.ComputeJob` size).
    priority_class:
        Name of the :class:`PriorityClass` this task drains under.
    owner:
        The submitting user/handheld id (fairness accounting groups by
        it).
    requirements:
        Declarative site constraints matched against each pilot's
        :class:`~repro.wms.matching.ResourceDescription` at claim time.
    run:
        Optional payload: ``run(done)`` performs the work itself (e.g.
        a :class:`~repro.queries.executor.QueryExecutor` submission) and
        calls ``done(success)`` when finished.  ``None`` means a pure
        compute task: the claiming pilot turns it into a
        :class:`~repro.grid.job.ComputeJob` on its own site.
    input_bits / output_bits:
        Data shipped with a compute task (forwarded to the job).
    job:
        The :class:`~repro.grid.job.ComputeJob` of a compute task whose
        job failed at a site, else ``None``.  A claiming pilot builds the
        job and holds it while it runs; only a failure hands it to the
        task, so ``checkpoint_fraction`` survives every requeue and a
        re-submission only pays for the remaining work.  A task whose
        job never failed holds no job, even once it is done.
    state / submitted_at / dispatched_at / finished_at / site / attempts:
        Lifecycle bookkeeping stamped by the queue service and pilots.
    """

    ops: float
    priority_class: str = "standard"
    owner: str = ""
    name: str = ""
    requirements: TaskRequirements = NO_REQUIREMENTS
    run: typing.Callable[[typing.Callable[[bool], None]], None] | None = None
    input_bits: float = 0.0
    output_bits: float = 0.0
    job: ComputeJob | None = None
    task_id: int = dataclasses.field(default_factory=lambda: next(_task_ids))
    state: str = "waiting"
    submitted_at: float = math.nan
    dispatched_at: float = math.nan
    finished_at: float = math.nan
    site: str = ""
    attempts: int = 0

    def __post_init__(self) -> None:
        # the claiming pilot's ComputeJob would reject bad values mid-run
        checks.non_negative("ops", self.ops)
        checks.non_negative("input_bits", self.input_bits)
        checks.non_negative("output_bits", self.output_bits)

    @property
    def queue_wait_s(self) -> float:
        """Seconds between submission and dispatch (nan until dispatched)."""
        return self.dispatched_at - self.submitted_at

    @property
    def turnaround_s(self) -> float:
        """Seconds between submission and completion (nan until done)."""
        return self.finished_at - self.submitted_at
