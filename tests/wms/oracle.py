"""Reference workload management: the direct forms of the queue and pull loop.

:class:`ReferenceQueue` is the task-queue service written the plain way:
every claim runs the starvation watch as its own pass, sorts the
backlogged classes by ``(virtual tag, declaration order)`` and offers
their heads in that order; ``depth()`` sums the class queues; every
record looks its instrument up in the monitor by name.
:class:`ReferencePilot` claims on every pull, empty queue or not, and
carries each compute task to its completion in a closure.  A reference
pilot that refuses waiting work hands its wake to the longest-parked
pilot the last queue change left unwoken and unpassed, kept as an
explicit list; production keeps only a count of the passes left.  When
a refusal ends the round, the reference pilot scans the board's breakers
for the earliest recovery and the queue keeps its one pending timed
wake in a list.  The
production :class:`~repro.wms.queues.TaskQueueService` keeps a running
depth, picks the first class in the starvation pass, binds its
instruments once, and its pilots skip the claim when nothing waits and
keep the in-flight task on the pilot, so tests can assert the fast
paths produce *exactly* what these produce: the same claims, tallies,
telemetry and trace events.
"""

from __future__ import annotations

import collections
import math

from repro.grid.job import ComputeJob
from repro.observability.tracer import NOOP_TRACER
from repro.wms.matching import describe
from repro.wms.pilot import PilotWorker
from repro.wms.task import DEFAULT_CLASSES


class _ClassQueue:
    def __init__(self, spec, order):
        self.spec = spec
        self.order = order
        self.tasks = collections.deque()
        self.vtag = 0.0
        self.ops_submitted = 0.0
        self.ops_completed = 0.0
        self.submitted = 0
        self.dispatched = 0
        self.completed = 0
        self.failed = 0
        self.starving = False


class ReferenceQueue:
    """Same constructor, surface and observable behaviour as
    :class:`~repro.wms.queues.TaskQueueService` (for valid batches)."""

    def __init__(self, sim, classes=DEFAULT_CLASSES, *, monitor=None,
                 tracer=None, starvation_s=120.0):
        self.sim = sim
        self.monitor = monitor
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self.starvation_s = float(starvation_s)
        self._classes = {spec.name: _ClassQueue(spec, i)
                         for i, spec in enumerate(classes)}
        self._vclock = 0.0
        self._waiters = collections.deque()
        self._unpassed = []  # parked at the last change, not yet passed a wake
        self._timed = []  # the pending wake_at time, if any

    def depth(self, priority_class=None):
        if priority_class is not None:
            return len(self._classes[priority_class].tasks)
        return sum(len(c.tasks) for c in self._classes.values())

    def class_stats(self):
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

    def submit(self, task):
        self.submit_bulk((task,))
        return task

    def submit_bulk(self, tasks):
        now = self.sim.now
        for task in tasks:
            cq = self._classes[task.priority_class]
            if not cq.tasks:
                cq.vtag = max(cq.vtag, self._vclock)
            task.state = "waiting"
            task.submitted_at = now
            cq.tasks.append(task)
            cq.submitted += 1
            cq.ops_submitted += task.ops
        if self.monitor is not None:
            self.monitor.counter("wms.tasks_submitted").add(len(tasks))
            self.monitor.series("wms.queue_depth").record(now, float(self.depth()))
        self._wake(len(tasks))
        return len(tasks)

    def requeue(self, task):
        cq = self._classes[task.priority_class]
        if not cq.tasks:
            cq.vtag = max(cq.vtag, self._vclock)
        task.state = "waiting"
        task.site = ""
        cq.tasks.append(task)
        if self.monitor is not None:
            self.monitor.counter("wms.tasks_requeued").add(1)
        self._wake(1)

    def claim(self, desc):
        now = self.sim.now
        self._check_starvation(now)
        order = sorted((c for c in self._classes.values() if c.tasks),
                       key=lambda c: (c.vtag, c.order))
        for cq in order:
            head = cq.tasks[0]
            if not head.requirements.accepts(desc):
                continue
            cq.tasks.popleft()
            self._vclock = cq.vtag
            cq.vtag += max(head.ops, 1.0) / cq.spec.weight
            cq.dispatched += 1
            cq.starving = False
            head.state = "running"
            head.dispatched_at = now
            head.site = desc.name
            head.attempts += 1
            if self.monitor is not None:
                self.monitor.counter("wms.tasks_dispatched").add(1)
                self.monitor.histogram("wms.queue_latency").observe(head.queue_wait_s)
                self.monitor.series("wms.queue_depth").record(now, float(self.depth()))
            if self.tracer.enabled:
                self.tracer.event("wms.dispatch", task_id=head.task_id,
                                  priority_class=head.priority_class,
                                  site=desc.name, wait_s=head.queue_wait_s,
                                  attempt=head.attempts, depth=self.depth())
            return head
        return None

    def report(self, task, success):
        cq = self._classes[task.priority_class]
        task.state = "done" if success else "failed"
        task.finished_at = self.sim.now
        if success:
            cq.completed += 1
            cq.ops_completed += task.ops
        else:
            cq.failed += 1
        if self.monitor is not None:
            name = "wms.tasks_completed" if success else "wms.tasks_failed"
            self.monitor.counter(name).add(1)
            self.monitor.histogram("wms.turnaround").observe(task.turnaround_s)

    def park(self, wake):
        self._waiters.append(wake)

    def pass_on(self, wake):
        self._waiters.append(wake)
        if not self._unpassed:
            return False
        passed = self._unpassed.pop(0)
        self._waiters.remove(passed)
        self.sim.schedule(0.0, passed, label="wms.wake")
        return True

    def wake_at(self, time):
        if self._timed:
            return

        def fire():
            self._timed.clear()
            self._wake(self.depth())

        self.sim.schedule_at(time, fire, label="wms.wake")
        self._timed.append(time)

    def _wake(self, n):
        woken = 0
        while self._waiters and woken < n:
            self.sim.schedule(0.0, self._waiters.popleft(), label="wms.wake")
            woken += 1
        self._unpassed = list(self._waiters)

    def _check_starvation(self, now):
        for cq in self._classes.values():
            if not cq.tasks:
                cq.starving = False
                continue
            wait = now - cq.tasks[0].submitted_at
            if wait > self.starvation_s and not cq.starving:
                cq.starving = True
                if self.monitor is not None:
                    self.monitor.counter("wms.tasks_starved").add(1)
                if self.tracer.enabled:
                    self.tracer.event("wms.starved", priority_class=cq.spec.name,
                                      wait_s=wait, depth=len(cq.tasks))


class ReferencePilot(PilotWorker):
    """A pilot that describes its site and claims on every pull."""

    def _pull(self):
        if self._busy:
            return
        task = self.queue.claim(describe(self.resource, self.breakers))
        if task is None:
            if not self.queue.depth():
                self.queue.park(self._pull)
            elif not self.queue.pass_on(self._pull) and self.breakers is not None:
                # every parked pilot refused: ask again at the first recovery
                recoveries = [b.half_opens_at for b in self.breakers._breakers.values()]
                recoveries = [t for t in recoveries if t is not None and t < math.inf]
                if recoveries:
                    self.queue.wake_at(min(recoveries))
            return
        self._busy = True
        if task.run is not None:
            task.run(lambda success, _t=task: self._finish(_t, success))
        else:
            if task.job is None:
                task.job = ComputeJob(ops=task.ops, input_bits=task.input_bits,
                                      output_bits=task.output_bits, name=task.name)
            self.resource.submit(
                task.job, lambda result, _t=task: self._job_done(_t, result))

    def _job_done(self, task, result):
        if not result.success and task.attempts < self.max_attempts:
            self._busy = False
            self.queue.requeue(task)
            self._pull()
            return
        self._finish(task, result.success)
