"""The central task-queue service: priority classes + weighted fair share.

The DIRAC lineage in one object: producers (handheld users, base
stations, benchmarks) push :class:`~repro.wms.task.Task` batches into
per-class FIFO queues; pilots pull with :meth:`TaskQueueService.claim`,
offering their site's :class:`~repro.wms.matching.ResourceDescription`.
The service decides *which class* serves next by start-time fair
queuing: every class carries a virtual start tag that advances by
``ops / weight`` per drained task, so over any contended interval the
drained *work* per class converges to the weight ratio -- heavy bulk
tasks cannot starve light interactive ones, and an idle class re-enters
at the current virtual clock instead of cashing in unbounded credit.

Everything is deterministic: queues are FIFO, the class pick is
``min((tag, declaration order))``, parked pilots wake in parking order
through ordinary simulator events -- one zero-delay event per round of
pilots a queue change wakes (a pilot that refuses waiting work passes
its wake on to the longest-parked one) -- and no RNG or wall clock is
ever consulted: serial and sharded runs of the same workload are
bit-identical (the E15 determinism gate).

Observability: ``wms.*`` counters/histograms/series on the attached
monitor (see :mod:`repro.observability.metrics`), a ``wms.dispatch``
trace event per claim and a ``wms.starved`` event whenever a class's
head task first exceeds the starvation threshold.
"""

from __future__ import annotations

import collections
import typing

from repro import checks
from repro.observability.tracer import NOOP_TRACER, Tracer
from repro.simkernel import Monitor, Simulator
from repro.wms.matching import ResourceDescription
from repro.wms.task import DEFAULT_CLASSES, PriorityClass, Task


class _ClassQueue:
    """One priority class's FIFO plus its fair-share state."""

    __slots__ = ("spec", "order", "tasks", "vtag", "ops_submitted",
                 "ops_completed", "submitted", "dispatched", "completed",
                 "failed", "starving")

    def __init__(self, spec: PriorityClass, order: int) -> None:
        self.spec = spec
        self.order = order
        self.tasks: collections.deque[Task] = collections.deque()
        self.vtag = 0.0  # virtual start tag (ops / weight units)
        self.ops_submitted = 0.0
        self.ops_completed = 0.0
        self.submitted = 0
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.starving = False  # inside a starvation episode


#: The service's monitor instruments: attribute -> (kind, metric name).
_INSTRUMENTS = {
    "submitted": ("counter", "wms.tasks_submitted"),
    "requeued": ("counter", "wms.tasks_requeued"),
    "dispatched": ("counter", "wms.tasks_dispatched"),
    "completed": ("counter", "wms.tasks_completed"),
    "failed": ("counter", "wms.tasks_failed"),
    "starved": ("counter", "wms.tasks_starved"),
    "queue_depth": ("series", "wms.queue_depth"),
    "queue_latency": ("histogram", "wms.queue_latency"),
    "turnaround": ("histogram", "wms.turnaround"),
}


class _Instruments:
    """The service's ``wms.*`` instruments, each looked up on first use
    and then kept as an attribute.

    Binding at first use means the monitor creates each instrument when
    the service first records into it, so counters that never fire stay
    absent from :meth:`Monitor.summary` and creation order is unchanged.
    """

    def __init__(self, monitor: Monitor) -> None:
        self._monitor = monitor

    def __getattr__(self, attr: str) -> typing.Any:
        try:
            kind, name = _INSTRUMENTS[attr]
        except KeyError:
            raise AttributeError(attr) from None
        instrument = getattr(self._monitor, kind)(name)
        setattr(self, attr, instrument)
        return instrument


class TaskQueueService:
    """Bulk submission in, fair-share matched claims out.

    Parameters
    ----------
    sim:
        The shared simulator (timestamps, pilot wake-ups).
    classes:
        Priority-class catalog (declaration order is the deterministic
        tie-break); defaults to interactive/standard/bulk at 6/3/1.
    monitor / tracer:
        Observability sinks; both optional/no-op.  The monitor is fixed
        at construction: its ``wms.*`` instruments are bound on first use.
    starvation_s:
        A class whose head task has waited longer than this opens a
        starvation episode: one ``wms.tasks_starved`` count and one
        ``wms.starved`` trace event per episode (cleared when the class
        next dispatches or empties).
    """

    def __init__(
        self,
        sim: Simulator,
        classes: typing.Sequence[PriorityClass] = DEFAULT_CLASSES,
        *,
        monitor: Monitor | None = None,
        tracer: Tracer | None = None,
        starvation_s: float = 120.0,
    ) -> None:
        if not classes:
            raise ValueError("the queue service needs at least one priority class")
        names = [c.name for c in classes]
        if len(set(names)) != len(names):
            raise ValueError("priority class names must be unique")
        self.sim = sim
        self.monitor = monitor
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.starvation_s = float(checks.positive("starvation_s", starvation_s))
        self._classes: dict[str, _ClassQueue] = {
            spec.name: _ClassQueue(spec, i) for i, spec in enumerate(classes)
        }
        self._vclock = 0.0  # virtual time of the last dispatch
        self._depth = 0  # waiting tasks over every class
        self._waiters: collections.deque[typing.Callable[[], None]] = collections.deque()
        self._passes = 0  # refusal passes left since the last submit or requeue
        self._wake_pending = False  # a wake_at event is scheduled
        self._metrics = _Instruments(monitor) if monitor is not None else None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def classes(self) -> tuple[PriorityClass, ...]:
        """The class catalog, in declaration order."""
        return tuple(c.spec for c in self._classes.values())

    def depth(self, priority_class: str | None = None) -> int:
        """Waiting tasks in one class (or in total)."""
        if priority_class is not None:
            return len(self._class(priority_class).tasks)
        return self._depth

    def class_stats(self) -> dict[str, dict[str, float]]:
        """Per-class tallies (deterministic; keyed by class name)."""
        return {
            name: {
                "weight": c.spec.weight,
                "waiting": float(len(c.tasks)),
                "submitted": float(c.submitted),
                "dispatched": float(c.dispatched),
                "completed": float(c.completed),
                "failed": float(c.failed),
                "ops_submitted": c.ops_submitted,
                "ops_completed": c.ops_completed,
            }
            for name, c in self._classes.items()
        }

    def _class(self, name: str) -> _ClassQueue:
        cq = self._classes.get(name)
        if cq is None:
            raise KeyError(f"unknown priority class {name!r} "
                           f"(have {sorted(self._classes)})")
        return cq

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> Task:
        """Enqueue one task; returns it (stamped)."""
        self.submit_bulk((task,))
        return task

    def submit_bulk(self, tasks: typing.Sequence[Task]) -> int:
        """Enqueue a batch atomically (one depth sample, one wake pass).

        Bulk submission is the high-traffic entry point: a base station
        flushing a burst of handheld queries costs O(batch) appends, not
        O(batch) bookkeeping rounds.  Every task's class is resolved
        before any is enqueued, so a batch naming an unknown class
        raises ``KeyError`` and leaves the queue untouched.  Returns the
        batch size.
        """
        queues = [self._class(task.priority_class) for task in tasks]
        now = self.sim.now
        for task, cq in zip(tasks, queues):
            if not cq.tasks:
                # an idle class re-enters at the current virtual clock:
                # no credit accumulates while a class has nothing queued
                cq.vtag = max(cq.vtag, self._vclock)
            task.state = "waiting"
            task.submitted_at = now
            cq.tasks.append(task)
            cq.submitted += 1
            cq.ops_submitted += task.ops
        self._depth += len(tasks)
        if self._metrics is not None:
            self._metrics.submitted.add(len(tasks))
            self._metrics.queue_depth.record(now, float(self._depth))
        self._wake(len(tasks))
        return len(tasks)

    def requeue(self, task: Task) -> None:
        """Return a failed/preempted task to the tail of its class queue.

        The original ``submitted_at`` is preserved so queue-latency
        accounting keeps charging the full wait to the task.  A task
        that is not ``running`` (claimed) raises ``ValueError``.
        """
        if task.state != "running":
            raise ValueError(f"cannot requeue a {task.state!r} task, only a running one")
        cq = self._class(task.priority_class)
        if not cq.tasks:
            cq.vtag = max(cq.vtag, self._vclock)
        task.state = "waiting"
        task.site = ""
        cq.tasks.append(task)
        self._depth += 1
        if self._metrics is not None:
            self._metrics.requeued.add(1)
        self._wake(1)

    # ------------------------------------------------------------------
    # the pull half: matched claims
    # ------------------------------------------------------------------
    def claim(self, desc: ResourceDescription) -> Task | None:
        """The next task ``desc`` may run, under fair-share order.

        Classes are considered in ascending ``(virtual tag, declaration
        order)``; within a class only the head task is offered (strict
        FIFO -- a head whose requirements reject this site blocks its
        class for this claim, it is never overtaken by queue-jumping).
        Returns ``None`` when no head task matches.
        """
        now = self.sim.now
        # one pass in declaration order runs the starvation watch and
        # finds the first class in fair-share order
        first = None
        for cq in self._classes.values():
            if not cq.tasks:
                cq.starving = False
                continue
            wait = now - cq.tasks[0].submitted_at
            if wait > self.starvation_s and not cq.starving:
                cq.starving = True
                if self._metrics is not None:
                    self._metrics.starved.add(1)
                if self.tracer.enabled:
                    self.tracer.event("wms.starved",
                                      priority_class=cq.spec.name,
                                      wait_s=wait, depth=len(cq.tasks))
            if first is None or cq.vtag < first.vtag:
                first = cq
        if first is None:
            return None
        cq = first
        if not cq.tasks[0].requirements.accepts(desc):
            # its head rejects this site: offer the other heads in order
            rest = sorted((c for c in self._classes.values() if c.tasks and c is not first),
                          key=lambda c: (c.vtag, c.order))
            cq = next((c for c in rest if c.tasks[0].requirements.accepts(desc)), None)
            if cq is None:
                return None
        head = cq.tasks.popleft()
        self._depth -= 1
        self._vclock = cq.vtag
        cq.vtag += max(head.ops, 1.0) / cq.spec.weight
        cq.dispatched += 1
        cq.starving = False
        head.state = "running"
        head.dispatched_at = now
        head.site = desc.name
        head.attempts += 1
        wait = now - head.submitted_at
        if self._metrics is not None:
            self._metrics.dispatched.add(1)
            self._metrics.queue_latency.observe(wait)
            self._metrics.queue_depth.record(now, float(self._depth))
        if self.tracer.enabled:
            self.tracer.event("wms.dispatch", task_id=head.task_id,
                              priority_class=head.priority_class,
                              site=desc.name, wait_s=wait,
                              attempt=head.attempts, depth=self._depth)
        return head

    def report(self, task: Task, success: bool) -> None:
        """A pilot finished ``task``, which must be ``running``; close it out."""
        if task.state != "running":
            raise ValueError(f"cannot report a {task.state!r} task, only a running one")
        cq = self._class(task.priority_class)
        task.state = "done" if success else "failed"
        task.finished_at = self.sim.now
        if success:
            cq.completed += 1
            cq.ops_completed += task.ops
        else:
            cq.failed += 1
        if self._metrics is not None:
            counter = self._metrics.completed if success else self._metrics.failed
            counter.add(1)
            self._metrics.turnaround.observe(task.finished_at - task.submitted_at)

    # ------------------------------------------------------------------
    # pilot parking
    # ------------------------------------------------------------------
    def park(self, wake: typing.Callable[[], None]) -> None:
        """Register an idle pilot's wake callback (FIFO wake order).

        Parked pilots cost nothing while the queue is empty; each
        submitted task wakes at most one pilot.  The pilots one submit
        or requeue wakes form a round: they leave the parked list at
        once and one zero-delay simulator event calls them in parking
        order, so wake order is part of the deterministic event order.
        """
        self._waiters.append(wake)

    def pass_on(self, wake: typing.Callable[[], None]) -> bool:
        """Park a pilot whose claim refused waiting work, and wake the
        longest-parked pilot in its place.

        Heads match per site, so a pilot parked behind the refusing one
        may accept what it refused.  Each queue change (a submit or a
        requeue) allows one pass per pilot then parked, so a round in
        which every site refuses ends.  Returns False when no pass is
        left: this refusal ended the round.
        """
        self._waiters.append(wake)
        if not self._passes:
            return False
        self._passes -= 1
        self.sim.schedule(0.0, self._waiters.popleft(), label="wms.wake")
        return True

    def wake_at(self, time: float) -> None:
        """At simulated ``time``, wake parked pilots as a submit of every
        waiting task would: one per task, longest-parked first, with one
        pass per pilot left parked.

        For waiting work that a site may accept later although nothing
        changes in the queue (its breaker half-opens).  While one such
        wake is pending, another call does nothing.
        """
        if not self._wake_pending:
            self.sim.schedule_at(time, self._timed_wake, label="wms.wake")
            self._wake_pending = True

    def _timed_wake(self) -> None:
        self._wake_pending = False
        self._wake(self._depth)

    def _wake(self, n: int) -> None:
        """Wake up to ``n`` parked pilots, longest-parked first, as one
        round: they leave the parked list now, and one zero-delay event
        calls them in that order.

        This dispatches exactly as one event per pilot would (the form
        ``tests/wms/oracle.py`` keeps): those events hold consecutive
        sequence numbers at one instant, so no normal-priority event
        can fire between them.
        """
        waiters = self._waiters
        k = min(n, len(waiters))
        if k:
            woken = collections.deque(waiters.popleft() for _ in range(k))
            self.sim.schedule(0.0, lambda: self._call_round(woken), label="wms.wake")
        self._passes = len(waiters)

    def _call_round(self, woken: collections.deque) -> None:
        try:
            while woken:
                woken.popleft()()
        finally:
            if woken:
                # a wake raised: the rest of its round stays woken, as
                # the next round
                self.sim.schedule(0.0, lambda: self._call_round(woken), label="wms.wake")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        depths = {name: len(c.tasks) for name, c in self._classes.items()}
        return f"TaskQueueService(depth={depths}, parked={len(self._waiters)})"
