"""Tests for the workload-management service: queues, matching, pilots."""

import copy
import dataclasses
import gc
import math
import pickle

import numpy as np
import pytest

from repro.grid.job import ComputeJob
from repro.grid.resource import GridResource
from repro.observability.tracer import Tracer
from repro.simkernel import Monitor, Simulator
from repro.wms import (
    DEFAULT_CLASSES,
    NO_REQUIREMENTS,
    PilotWorker,
    PriorityClass,
    ResourceDescription,
    Task,
    TaskQueueService,
    TaskRequirements,
    WorkloadManager,
    describe,
)


def desc(name="site0", rate=1e9, backlog=0.0, healthy=True):
    return ResourceDescription(name=name, ops_per_second=rate,
                               backlog_s=backlog, healthy=healthy)


class TestTaskAndClasses:
    def test_priority_class_validation(self):
        with pytest.raises(ValueError):
            PriorityClass("", 1.0)
        with pytest.raises(ValueError):
            PriorityClass("x", 0.0)
        with pytest.raises(ValueError):
            PriorityClass("x", float("inf"))

    def test_task_validation_and_lifecycle_stamps(self):
        with pytest.raises(ValueError):
            Task(ops=-1.0)
        with pytest.raises(ValueError):
            Task(ops=1.0, input_bits=-1.0)
        t = Task(ops=5.0)
        assert t.state == "waiting"
        assert math.isnan(t.queue_wait_s) and math.isnan(t.turnaround_s)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["input_bits", "output_bits"])
    def test_task_rejects_non_finite_bits(self, field, value):
        """Caught at construction, not when a pilot builds the job."""
        with pytest.raises(ValueError, match="finite"):
            Task(ops=1.0, **{field: value})

    def test_task_ids_are_unique(self):
        a, b = Task(ops=1.0), Task(ops=1.0)
        assert a.task_id != b.task_id

    def test_task_is_slotted(self):
        t = Task(ops=1.0)
        assert not hasattr(t, "__dict__")
        with pytest.raises(AttributeError):
            t.priority = "bulk"  # a misspelt field fails instead of sticking

    def test_task_copies_with_equal_fields(self):
        t = Task(ops=2.5e6, priority_class="bulk", owner="h7", name="t",
                 requirements=TaskRequirements(min_ops_rate=1e6), input_bits=8.0,
                 output_bits=16.0, job=ComputeJob(2.5e6, checkpoint_fraction=0.25),
                 state="done", submitted_at=1.0, dispatched_at=1.5, finished_at=3.0,
                 site="s0", attempts=2)
        names = [f.name for f in dataclasses.fields(Task)]
        for twin in (copy.copy(t), dataclasses.replace(t), pickle.loads(pickle.dumps(t))):
            assert twin is not t and twin == t
            assert [getattr(twin, n) for n in names] == [getattr(t, n) for n in names]

    def test_default_catalog_shape(self):
        names = [c.name for c in DEFAULT_CLASSES]
        assert names == ["interactive", "standard", "bulk"]
        weights = [c.weight for c in DEFAULT_CLASSES]
        assert weights == sorted(weights, reverse=True)


class TestMatching:
    def test_no_requirements_accepts_healthy(self):
        assert NO_REQUIREMENTS.accepts(desc())

    def test_requirements_reject_each_axis(self):
        req = TaskRequirements(min_ops_rate=1e6, max_backlog_s=10.0,
                               require_healthy=True,
                               sites=frozenset({"site0"}))
        assert req.accepts(desc())
        assert not req.accepts(desc(rate=1e3))
        assert not req.accepts(desc(backlog=11.0))
        assert not req.accepts(desc(healthy=False))
        assert not req.accepts(desc(name="site1"))

    def test_unhealthy_allowed_when_not_required(self):
        req = TaskRequirements(require_healthy=False)
        assert req.accepts(desc(healthy=False))

    def test_requirements_validation(self):
        # NaN passes a `< 0` check, and a NaN min_ops_rate then admitted
        # every site: `rate < nan` is False too
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                TaskRequirements(min_ops_rate=bad)
            with pytest.raises(ValueError):
                TaskRequirements(max_backlog_s=bad)

    def test_describe_reads_live_resource_state(self):
        sim = Simulator()
        site = GridResource(sim, "siteX", 1e6)
        site.submit(ComputeJob(ops=2e6))
        d = describe(site)
        assert d.name == "siteX"
        assert d.ops_per_second == 1e6
        assert d.backlog_s == pytest.approx(2.0)
        assert d.healthy

    def test_description_builds_by_keyword_with_defaults(self):
        d = ResourceDescription(name="s", ops_per_second=1e6)
        assert d.backlog_s == 0.0 and d.healthy is True
        assert d == ResourceDescription("s", 1e6, 0.0, True)

    def test_description_is_immutable_and_hashed_by_value(self):
        d = desc()
        with pytest.raises(AttributeError):
            d.healthy = False
        assert d == desc() and hash(d) == hash(desc())
        assert len({desc(), desc(), desc(backlog=1.0)}) == 2
        assert desc() != desc(healthy=False)

    def test_describe_consults_breaker_board(self):
        class Board:
            def blocked_providers(self):
                return {"siteX"}

        sim = Simulator()
        site = GridResource(sim, "siteX", 1e6)
        assert not describe(site, Board()).healthy
        assert describe(GridResource(sim, "siteY", 1e6), Board()).healthy


class TestTaskQueueService:
    def make(self, **kw):
        sim = Simulator()
        monitor = Monitor()
        q = TaskQueueService(sim, monitor=monitor, **kw)
        return sim, monitor, q

    def test_constructor_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            TaskQueueService(sim, [])
        with pytest.raises(ValueError):
            TaskQueueService(sim, [PriorityClass("a", 1.0),
                                   PriorityClass("a", 2.0)])
        with pytest.raises(ValueError):
            TaskQueueService(sim, starvation_s=0.0)

    def test_unknown_class_rejected(self):
        _, _, q = self.make()
        with pytest.raises(KeyError):
            q.submit(Task(ops=1.0, priority_class="no-such-class"))

    def test_bulk_with_unknown_class_enqueues_nothing(self):
        """A bad batch is rejected whole: no task is stranded in the
        queue uncounted, with no pilot woken to run it."""
        sim, monitor, q = self.make()
        woken = []
        q.park(lambda: woken.append(True))
        with pytest.raises(KeyError):
            q.submit_bulk([Task(ops=1.0),
                           Task(ops=1.0, priority_class="no-such-class")])
        sim.run()
        assert q.depth() == 0
        assert q.class_stats()["standard"]["submitted"] == 0.0
        assert not woken
        assert "wms.tasks_submitted" not in monitor.counters()
        assert q.claim(desc()) is None

    def test_fifo_within_class(self):
        _, _, q = self.make()
        tasks = [Task(ops=1.0, priority_class="standard", name=f"t{i}")
                 for i in range(3)]
        q.submit_bulk(tasks)
        claimed = [q.claim(desc()).name for _ in range(3)]
        assert claimed == ["t0", "t1", "t2"]
        assert q.claim(desc()) is None

    def test_claim_stamps_lifecycle(self):
        sim, _, q = self.make()
        t = q.submit(Task(ops=1.0))
        got = q.claim(desc())
        assert got is t
        assert t.state == "running" and t.site == "site0" and t.attempts == 1
        q.report(t, True)
        assert t.state == "done"
        assert t.turnaround_s == 0.0

    def test_fair_share_drains_ops_by_weight(self):
        """Over a contended burst, drained ops track the weight ratio."""
        _, _, q = self.make(classes=(PriorityClass("heavy", 3.0),
                                     PriorityClass("light", 1.0)))
        q.submit_bulk([Task(ops=10.0, priority_class="heavy")
                       for _ in range(400)])
        q.submit_bulk([Task(ops=10.0, priority_class="light")
                       for _ in range(400)])
        drained = {"heavy": 0.0, "light": 0.0}
        for _ in range(200):  # both classes stay backlogged throughout
            t = q.claim(desc())
            drained[t.priority_class] += t.ops
        assert drained["heavy"] / drained["light"] == pytest.approx(3.0, rel=0.1)

    def test_head_of_line_blocks_only_its_class(self):
        """A head whose requirements reject the site never blocks other
        classes, and is not overtaken within its own class."""
        _, _, q = self.make()
        picky = Task(ops=1.0, priority_class="interactive", name="picky",
                     requirements=TaskRequirements(sites=frozenset({"other"})))
        easy = Task(ops=1.0, priority_class="interactive", name="easy")
        bulk = Task(ops=1.0, priority_class="bulk", name="bulk")
        q.submit_bulk([picky, easy, bulk])
        # interactive's head rejects site0: the claim falls through to bulk
        assert q.claim(desc()).name == "bulk"
        # the picky head still shields its classmate (strict FIFO)
        assert q.claim(desc()) is None
        assert q.claim(desc(name="other")).name == "picky"
        assert q.claim(desc()).name == "easy"

    def test_idle_class_does_not_hoard_credit(self):
        """A class idle through a long drain re-enters at the current
        virtual clock, not at zero -- it cannot monopolize afterwards."""
        _, _, q = self.make(classes=(PriorityClass("a", 1.0),
                                     PriorityClass("b", 1.0)))
        q.submit_bulk([Task(ops=100.0, priority_class="a")
                       for _ in range(50)])
        for _ in range(40):
            q.claim(desc())
        # b arrives late; without catch-up it would win the next ~40 claims
        q.submit_bulk([Task(ops=100.0, priority_class="b")
                       for _ in range(10)])
        first_ten = [q.claim(desc()).priority_class for _ in range(10)]
        assert first_ten.count("a") >= 4  # interleaved, not starved

    def test_requeue_preserves_submission_stamp(self):
        sim, monitor, q = self.make()
        t = q.submit(Task(ops=1.0))
        got = q.claim(desc())
        sim.run(until=5.0)
        q.requeue(got)
        assert got.state == "waiting" and got.site == ""
        again = q.claim(desc())
        assert again is t
        assert again.queue_wait_s == 5.0  # charged from original submit
        assert monitor.counters()["wms.tasks_requeued"] == 1.0

    def test_requeue_rejects_a_waiting_task(self):
        """Requeueing a task that was never claimed would enqueue it a
        second time and let two claims run it."""
        _, monitor, q = self.make()
        t = q.submit(Task(ops=1.0))
        with pytest.raises(ValueError, match="running"):
            q.requeue(t)
        assert t.state == "waiting" and q.depth() == 1
        assert q.claim(desc()) is t and t.attempts == 1
        assert q.claim(desc()) is None
        assert "wms.tasks_requeued" not in monitor.counters()

    def test_report_rejects_a_task_already_reported(self):
        """A second report of one claim would count two completions
        against one submission."""
        _, monitor, q = self.make()
        t = q.submit(Task(ops=1.0))
        q.report(q.claim(desc()), True)
        with pytest.raises(ValueError, match="running"):
            q.report(t, True)
        assert t.state == "done"
        assert q.class_stats()["standard"]["completed"] == 1.0
        assert monitor.counters()["wms.tasks_completed"] == 1.0

    def test_counters_and_histograms_recorded(self):
        sim, monitor, q = self.make()
        q.submit_bulk([Task(ops=1.0), Task(ops=2.0)])
        sim.run(until=1.0)
        t = q.claim(desc())
        q.report(t, True)
        t2 = q.claim(desc())
        q.report(t2, False)
        c = monitor.counters()
        assert c["wms.tasks_submitted"] == 2.0
        assert c["wms.tasks_dispatched"] == 2.0
        assert c["wms.tasks_completed"] == 1.0
        assert c["wms.tasks_failed"] == 1.0
        summary = monitor.summary()
        assert summary["wms.queue_latency.count"] == 2

    def test_starvation_episode_fires_once(self):
        sim, monitor, q = self.make(starvation_s=10.0)
        sim.tracer = tracer = Tracer(sim)
        q.tracer = tracer
        q.submit(Task(ops=1.0, priority_class="bulk",
                      requirements=TaskRequirements(sites=frozenset({"other"}))))
        sim.run(until=20.0)
        q.claim(desc())  # head cannot match: episode opens
        q.claim(desc())  # still starving: no second count
        assert monitor.counters()["wms.tasks_starved"] == 1.0
        starved = [r for r in tracer.records if r.name == "wms.starved"]
        assert len(starved) == 1
        assert starved[0].attrs["priority_class"] == "bulk"
        # draining the class closes the episode; a fresh stall reopens it
        assert q.claim(desc(name="other")) is not None
        q.submit(Task(ops=1.0, priority_class="bulk",
                      requirements=TaskRequirements(sites=frozenset({"other"}))))
        sim.run(until=40.0)
        q.claim(desc())
        assert monitor.counters()["wms.tasks_starved"] == 2.0

    def test_dispatch_emits_trace_event(self):
        sim, _, q = self.make()
        tracer = Tracer(sim)
        q.tracer = tracer
        q.submit(Task(ops=1.0))
        q.claim(desc())
        events = [r for r in tracer.records if r.name == "wms.dispatch"]
        assert len(events) == 1
        assert events[0].attrs["site"] == "site0"

    def test_wake_parks_through_simulator_events(self):
        sim, _, q = self.make()
        woken = []
        q.park(lambda: woken.append("a"))
        q.park(lambda: woken.append("b"))
        q.submit(Task(ops=1.0))  # one task wakes exactly one pilot
        sim.run()
        assert woken == ["a"]
        q.submit_bulk([Task(ops=1.0), Task(ops=1.0)])
        sim.run()
        assert woken == ["a", "b"]


class TestPilots:
    def test_pilot_runs_compute_tasks_on_its_site(self):
        sim = Simulator()
        monitor = Monitor()
        q = TaskQueueService(sim, monitor=monitor)
        site = GridResource(sim, "site0", 1e6)
        pilot = PilotWorker(sim, q, site)
        pilot.start()
        q.submit_bulk([Task(ops=1e6), Task(ops=2e6)])
        sim.run()
        assert pilot.tasks_run == 2 and pilot.tasks_failed == 0
        assert site.jobs_completed == 2
        assert sim.now == pytest.approx(3.0)
        assert monitor.counters()["wms.tasks_completed"] == 2.0

    def test_pilot_runs_payload_tasks(self):
        sim = Simulator()
        q = TaskQueueService(sim)
        site = GridResource(sim, "site0", 1e6)
        PilotWorker(sim, q, site).start()
        ran = []

        def run(done):
            ran.append(True)
            sim.schedule(0.5, lambda: done(True), label="payload")

        t = Task(ops=1.0, run=run)
        q.submit(t)
        sim.run()
        assert ran == [True]
        assert t.state == "done"

    def test_failed_compute_requeues_and_keeps_checkpoint(self):
        sim = Simulator()
        q = TaskQueueService(sim)
        flaky = GridResource(sim, "flaky", 1e6, fail_prob=0.999,
                             rng=np.random.default_rng(0))
        pilot = PilotWorker(sim, q, flaky, max_attempts=3)
        pilot.start()
        t = Task(ops=1e6)
        q.submit(t)
        sim.run()
        assert t.state == "failed"
        assert t.attempts == 3
        assert t.job is not None
        # the checkpoint accumulated across all three attempts
        assert t.job.checkpoint_fraction > 0.0
        assert pilot.tasks_failed == 1

    def test_site_failure_requeues_then_reports_the_same_task(self):
        class FailOnce:
            """Failure draws: the first job fails halfway, later ones run."""

            def __init__(self):
                self.draws = [0.0]

            def random(self):
                return self.draws.pop() if self.draws else 1.0

            def uniform(self, low, high):
                return 0.5

        sim = Simulator()
        monitor = Monitor()
        q = TaskQueueService(sim, monitor=monitor)
        requeued, reported = [], []
        requeue, report = q.requeue, q.report
        q.requeue = lambda task: requeued.append(task) or requeue(task)
        q.report = lambda task, ok: reported.append((task, ok)) or report(task, ok)
        site = GridResource(sim, "site0", 1e6, fail_prob=0.5, rng=FailOnce())
        pilot = PilotWorker(sim, q, site, max_attempts=2)
        pilot.start()
        t = q.submit(Task(ops=1e6))
        sim.run()
        assert requeued == [t] and reported == [(t, True)]
        assert t.state == "done" and t.attempts == 2
        assert t.job.checkpoint_fraction == 0.5
        assert sim.now == pytest.approx(1.0)  # half, then the other half
        assert pilot.tasks_run == 1 and pilot.tasks_failed == 0
        assert site.jobs_failed == 1 and site.jobs_completed == 1
        assert monitor.counters()["wms.tasks_requeued"] == 1.0
        assert pilot._task is None

    def test_idle_pull_parks_without_claiming_but_polls_breakers(self):
        """A pull that finds the queue empty parks without a claim; a
        pilot with a breaker board still polls it on that pull, so an
        open breaker half-opens at that pull's time."""
        from repro.resilience.breaker import BreakerBoard

        sim = Simulator()
        tracer = Tracer(sim)
        q = TaskQueueService(sim)
        claims = []
        claim = q.claim
        q.claim = lambda desc: claims.append(desc) or claim(desc)
        board = BreakerBoard(sim, tracer=tracer, failure_threshold=1,
                             recovery_timeout_s=1.0)
        site = GridResource(sim, "site0", 1e6)
        PilotWorker(sim, q, site, breakers=board).start()
        sim.run()
        assert claims == []  # the first pull found nothing waiting
        board.record_failure("site0")
        q.submit(Task(ops=2e6, requirements=TaskRequirements(require_healthy=False)))
        sim.run()
        assert len(claims) == 1  # the pull after the task ended did not claim
        (transition,) = [e for e in tracer.events()
                         if e.name == "resilience.breaker_transition"
                         and e.attrs["to_state"] == "half-open"]
        assert transition.time_s == 2.0  # polled by that pull

    def test_max_attempts_validation(self):
        sim = Simulator()
        q = TaskQueueService(sim)
        site = GridResource(sim, "site0", 1e6)
        with pytest.raises(ValueError):
            PilotWorker(sim, q, site, max_attempts=0)

    @pytest.mark.parametrize("bad", [0, -2, 2.9, 2.0, True, False, math.inf,
                                     math.nan, "3", None])
    def test_max_attempts_must_be_a_positive_int(self, bad):
        """Not truncated (2.9 was 2 attempts), read as a count (True was
        1), or left to overflow (inf raised OverflowError)."""
        sim = Simulator()
        site = GridResource(sim, "site0", 1e6)
        with pytest.raises(ValueError, match="max_attempts"):
            PilotWorker(sim, TaskQueueService(sim), site, max_attempts=bad)
        with pytest.raises(ValueError, match="max_attempts"):
            WorkloadManager(sim, [site], max_attempts=bad)
        assert WorkloadManager(sim, [site], max_attempts=1).pilots[0].max_attempts == 1


class TestRefusedClaims:
    """A pilot whose claim refuses waiting work parks and passes the wake
    to the longest-parked pilot, at most once per parked pilot for each
    submit or requeue."""

    def parked(self, sim, rates, breakers=None):
        sites = [GridResource(sim, name, rate) for name, rate in rates.items()]
        wm = WorkloadManager(sim, sites, breakers=breakers).start()
        sim.run()  # every pilot parks on the empty queue
        return wm

    def test_task_only_a_later_parked_site_accepts_runs_there(self):
        sim = Simulator()
        wm = self.parked(sim, {"slow": 1e6, "fast": 1e9})
        task = wm.submit_compute(1e6, requirements=TaskRequirements(min_ops_rate=1e8))
        sim.run(until=100.0)
        assert task.state == "done" and task.site == "fast"
        assert wm.queue.depth() == 0

    def test_task_a_breaker_blocks_runs_on_the_idle_site(self):
        from repro.resilience.breaker import BreakerBoard

        sim = Simulator()
        board = BreakerBoard(sim, failure_threshold=1)
        wm = self.parked(sim, {"a": 1e6, "b": 1e6}, breakers=board)
        board.record_failure("a")
        task = wm.submit_compute(1e6)
        sim.run(until=10_000.0)
        assert task.state == "done" and task.site == "b"
        assert wm.queue.depth() == 0

    def tripped(self, sim, trips):
        """Pilots parked on sites "a" and "b" (1e6 ops/s), each breaker
        tripped at its time in ``trips`` (60 s recovery)."""
        from repro.resilience.breaker import BreakerBoard

        board = BreakerBoard(sim, failure_threshold=1, recovery_timeout_s=60.0)
        wm = self.parked(sim, {"a": 1e6, "b": 1e6}, breakers=board)
        for site, time in sorted(trips.items(), key=lambda kv: kv[1]):
            sim.schedule_at(time, lambda site=site: board.record_failure(site))
            sim.run()
        return wm, board

    def test_task_runs_when_the_first_breaker_half_opens(self):
        """Every site's breaker open: the round ends with every pilot
        parked, and one wake at the recovery deadline runs the task (1 s
        of service) instead of leaving it for the next submit."""
        sim = Simulator()
        wm, _ = self.tripped(sim, {"a": 0.0, "b": 0.0})
        task = wm.submit_compute(1e6)
        sim.run(until=59.0)
        assert task.state == "waiting" and sim.pending == 1
        sim.run(until=10_000.0)
        assert task.state == "done" and task.finished_at == 61.0
        assert sim.pending == 0

    def test_task_runs_on_the_site_that_recovers_first(self):
        """"b" tripped first, so it half-opens first (60 s, against 70 s
        for "a"); the wake goes to "a", parked longest, which passes it
        on."""
        sim = Simulator()
        wm, _ = self.tripped(sim, {"b": 0.0, "a": 10.0})
        task = wm.submit_compute(1e6)
        sim.run(until=10_000.0)
        assert task.state == "done" and task.site == "b"
        assert task.finished_at == 61.0

    def test_one_timed_wake_pending_at_a_time(self):
        sim = Simulator()
        wm, _ = self.tripped(sim, {"a": 0.0, "b": 0.0})
        tasks = []
        for time in (1.0, 2.0, 3.0):
            sim.schedule_at(time, lambda: tasks.append(wm.submit_compute(1e6)))
            sim.run(until=time + 1.0)
            assert sim.pending == 1
        sim.run(until=10_000.0)
        assert [t.finished_at for t in tasks] == [61.0, 61.0, 62.0]

    def test_no_timed_wake_when_no_breaker_ever_half_opens(self):
        """Breakers with an infinite recovery timeout never half-open: the
        round ends with the task waiting and nothing scheduled."""
        from repro.resilience.breaker import BreakerBoard

        sim = Simulator()
        board = BreakerBoard(sim, failure_threshold=1, recovery_timeout_s=math.inf)
        wm = self.parked(sim, {"a": 1e6, "b": 1e6}, breakers=board)
        board.record_failure("a")
        board.record_failure("b")
        task = wm.submit_compute(1e6)
        sim.run(until=10_000.0)
        assert task.state == "waiting" and sim.pending == 0

    def test_no_timed_wake_when_no_breaker_is_open(self):
        """A round every site refuses by requirements, with a board whose
        breakers are all closed, schedules nothing."""
        sim = Simulator()
        wm, board = self.tripped(sim, {})
        board.record_success("a")
        task = wm.submit_compute(1e6, requirements=TaskRequirements(sites=frozenset({"c"})))
        sim.run(max_events=100)
        assert sim.pending == 0 and task.state == "waiting"

    def test_round_where_every_site_refuses_ends(self):
        sim = Simulator()
        wm = self.parked(sim, {f"s{i}": 1e6 for i in range(5)})
        offers = []
        claim = wm.queue.claim
        wm.queue.claim = lambda desc: offers.append(desc.name) or claim(desc)
        before = sim.events_executed
        task = wm.submit_compute(
            1e6, requirements=TaskRequirements(sites=frozenset({"nowhere"})))
        sim.run(max_events=100)
        assert sim.pending == 0  # quiet, not cut short
        # the submit woke s0, which passed to the four parked behind it
        assert offers == ["s0", "s1", "s2", "s3", "s4"]
        assert sim.events_executed - before == 5
        assert task.state == "waiting" and wm.queue.depth() == 1


class TestWorkloadManager:
    def test_needs_at_least_one_site(self):
        with pytest.raises(ValueError):
            WorkloadManager(Simulator(), [])

    def test_compute_tasks_spread_over_pilots(self):
        sim = Simulator()
        sites = [GridResource(sim, f"s{i}", 1e6) for i in range(4)]
        wm = WorkloadManager(sim, sites)
        for i in range(8):
            wm.submit_compute(1e6, owner=f"u{i}")
        sim.run()
        stats = wm.stats()
        assert stats["depth"] == 0
        assert sum(p["tasks_run"] for p in stats["pilots"].values()) == 8
        # the pull model keeps every site busy, not just the first
        assert all(p["tasks_run"] > 0 for p in stats["pilots"].values())

    def test_submit_query_requires_executor(self):
        sim = Simulator()
        wm = WorkloadManager(sim, [GridResource(sim, "s0", 1e6)])
        with pytest.raises(RuntimeError):
            wm.submit_query("SELECT AVG(value) FROM sensors")

    def test_runtime_query_path(self):
        from repro.core import PervasiveGridRuntime

        rt = PervasiveGridRuntime(n_sensors=9, area_m=20.0, seed=3,
                                  noise_std=0.0, grid_resolution=8)
        wm = rt.workload_manager().start()
        results = []
        t = wm.submit_query("SELECT AVG(value) FROM sensors",
                            owner="handheld0",
                            on_complete=results.append)
        rt.sim.run(until=100.0)
        assert t.state == "done"
        (outcomes,) = results
        assert outcomes[0].success
        c = rt.monitor.counters()
        assert c["wms.tasks_completed"] == 1.0

    def test_tasks_hold_a_job_only_after_it_failed(self):
        """The pilot holds a job while it runs; only a failure leaves it
        on the task, for its checkpoint."""
        sim = Simulator()
        sites = [GridResource(sim, f"s{i}", 1e6 * (i + 1), fail_prob=0.3,
                              rng=np.random.default_rng(i)) for i in range(4)]
        wm = WorkloadManager(sim, sites, max_attempts=2)
        tasks = [wm.submit_compute(1e6, owner=f"u{i % 3}") for i in range(60)]
        sim.run()
        assert all(t.state in ("done", "failed") for t in tasks)
        failed_once = [t.attempts > 1 or t.state == "failed" for t in tasks]
        assert 0 < sum(failed_once) < len(tasks)
        for t, failed in zip(tasks, failed_once):
            if failed:
                assert t.job is not None and t.job.checkpoint_fraction > 0.0
            else:
                assert t.job is None
        assert all(p._task is None and p._job is None for p in wm.pilots)

    def test_deterministic_across_identical_runs(self):
        def world():
            sim = Simulator()
            monitor = Monitor()
            sites = [GridResource(sim, f"s{i}", 1e6 * (i + 1)) for i in range(3)]
            wm = WorkloadManager(sim, sites, monitor=monitor)
            for i in range(30):
                cls = DEFAULT_CLASSES[i % 3].name
                wm.submit_compute(1e5 * (i + 1), priority_class=cls,
                                  owner=f"u{i % 5}")
            sim.run()
            return monitor.summary(), wm.stats(), sim.now

        assert world() == world()


class TestCollectorIndependence:
    """Nothing a WMS run computes depends on when the cyclic garbage
    collector runs."""

    @staticmethod
    def world():
        sim = Simulator()
        monitor = Monitor()
        sites = [GridResource(sim, f"s{i}", 1e6 * (1 + i % 5),
                              fail_prob=0.2 if i % 3 == 0 else 0.0,
                              rng=np.random.default_rng(i)) for i in range(24)]
        wm = WorkloadManager(sim, sites, monitor=monitor, max_attempts=2)
        rng = np.random.default_rng(7)

        def batch(n):
            wm.submit_bulk([Task(ops=float(rng.uniform(5e5, 1.5e6)),
                                 priority_class=DEFAULT_CLASSES[i % 3].name,
                                 owner=f"h{i % 25}") for i in range(n)])

        batch(240)
        for k in range(6):
            sim.schedule(1.0 + 0.5 * k, lambda: batch(20), label="test.batch")
        sim.run()
        return wm.queue.class_stats(), monitor.summary(), sim.now

    def test_same_results_with_the_collector_off_or_eager(self):
        thresholds, enabled = gc.get_threshold(), gc.isenabled()
        try:
            gc.disable()
            off = self.world()
            gc.enable()
            gc.set_threshold(1)
            before = gc.get_stats()[0]["collections"]
            eager = self.world()
            assert gc.get_stats()[0]["collections"] > before
        finally:
            gc.set_threshold(*thresholds)
            (gc.enable if enabled else gc.disable)()
        assert off == eager


class TestWmsSlos:
    def test_bundle_is_no_data_safe(self):
        from repro.observability.slo import SLOEvaluator, wms_slos

        sim = Simulator()
        ev = SLOEvaluator(sim, Monitor(), wms_slos(), interval_s=10.0)
        ev.start(30.0)
        sim.run()
        assert ev.health().verdict != "unhealthy"
        assert not ev.health().firing

    def test_failure_ratio_breaches_on_bad_run(self):
        from repro.observability.slo import SLOEvaluator, wms_slos

        sim = Simulator()
        monitor = Monitor()
        monitor.counter("wms.tasks_dispatched").add(10)
        monitor.counter("wms.tasks_failed").add(5)
        ev = SLOEvaluator(sim, monitor, wms_slos(), interval_s=10.0)
        ev.start(30.0)
        sim.run()
        assert "wms.failure_ratio" in ev.health().firing

    def test_wms_metrics_are_catalogued(self):
        from repro.observability.metrics import CONVENTIONS

        for name in ("wms.tasks_submitted", "wms.tasks_dispatched",
                     "wms.tasks_completed", "wms.tasks_failed",
                     "wms.tasks_requeued", "wms.tasks_starved",
                     "wms.queue_depth", "wms.queue_latency",
                     "wms.turnaround"):
            assert name in CONVENTIONS
            assert CONVENTIONS[name].subsystem == "wms"
