"""The production queue and pilots against the reference forms in
``tests/wms/oracle.py``: one random script of submissions, hand claims,
requeues, reports, breaker trips and clock advances drives a production
world and a reference world side by side, and after every step both must
agree on the claimed task, the depths, the class tallies, the monitor
summary and every trace event.  A ``pinned`` step lets every pilot park
and then submits one task only a named site accepts, so a pilot parked
behind a refusing one must be passed the wake."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.grid.resource import GridResource
from repro.observability.sketch import TelemetryConfig
from repro.observability.tracer import Tracer
from repro.resilience.breaker import BreakerBoard
from repro.simkernel import Monitor, Simulator
from repro.wms import (
    NO_REQUIREMENTS,
    PilotWorker,
    PriorityClass,
    ResourceDescription,
    Task,
    TaskQueueService,
    TaskRequirements,
)
from tests.wms.oracle import ReferencePilot, ReferenceQueue

STARVATION_S = 4.0
SETTLE_S = 1_000.0  # long enough for every pilot to finish and park
SITES = (("a", 1e6, 0.3), ("b", 4e6, 0.0))  # name, ops/s, fail_prob
#: Every requirement rejects some offers; the first accepts any healthy site.
REQUIREMENTS = (
    NO_REQUIREMENTS,
    TaskRequirements(min_ops_rate=2e6),
    TaskRequirements(sites=frozenset({"b", "hand"})),
    TaskRequirements(max_backlog_s=0.5),
    TaskRequirements(require_healthy=False, sites=frozenset({"nowhere"})),
)
#: Hand-made offers for direct claims (they never poll the breakers).
OFFERS = (
    ResourceDescription("hand", 1e6),
    ResourceDescription("hand", 5e6, backlog_s=2.0),
    ResourceDescription("hand", 5e6, healthy=False),
    ResourceDescription("nowhere", 1e3, healthy=False),
)
OPS = (0.0, 0.5, 1e6, 2.5e6, 6e6)
PAYLOAD_S = (None, 0.0, 1.5, 5.0)  # None: a compute task run on the site

task_spec = st.tuples(st.integers(0, 2), st.sampled_from(OPS),
                      st.integers(0, len(REQUIREMENTS) - 1),
                      st.sampled_from(PAYLOAD_S), st.booleans())
step = st.one_of(
    st.tuples(st.just("submit"), st.lists(task_spec, max_size=4)),
    st.tuples(st.just("claim"), st.integers(0, len(OFFERS) - 1)),
    st.tuples(st.just("requeue"), st.integers(0, 7)),
    st.tuples(st.just("report"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("advance"), st.sampled_from((0.0, 0.7, 2.5, 4.5, 9.0))),
    st.tuples(st.just("trip"), st.sampled_from(("a", "b"))),
    st.tuples(st.just("heal"), st.sampled_from(("a", "b"))),
    st.tuples(st.just("pinned"), st.sampled_from(("a", "b")), task_spec),
)
#: Weights drawn from a small set, so ties between classes are common.
weights = st.lists(st.sampled_from((1.0, 2.0, 3.0)), min_size=3, max_size=3)


class World:
    """One simulated WMS: a queue, a pilot per site, a traced breaker board."""

    def __init__(self, queue_cls, pilot_cls, weights):
        self.sim = Simulator()
        # tiny raw tails, so the sketch record paths run too
        self.monitor = Monitor().configure(
            TelemetryConfig(histogram_max_raw=4, series_max_raw=4))
        self.tracer = Tracer(self.sim)
        self.classes = [PriorityClass(f"c{i}", w) for i, w in enumerate(weights)]
        self.queue = queue_cls(self.sim, self.classes, monitor=self.monitor,
                               tracer=self.tracer, starvation_s=STARVATION_S)
        self.board = BreakerBoard(self.sim, self.monitor, self.tracer,
                                  failure_threshold=1, recovery_timeout_s=2.0)
        self.pilots = []
        for i, (name, rate, fail_prob) in enumerate(SITES):
            site = GridResource(self.sim, name, rate, fail_prob=fail_prob,
                                rng=np.random.default_rng(i))
            self.pilots.append(pilot_cls(self.sim, self.queue, site,
                                         breakers=self.board, max_attempts=2))
            self.pilots[-1].start()
        self.held = []  # hand-claimed tasks
        self.next_id = 0

    def task(self, cls, ops, req, payload_s, ok, requirements=None):
        sim = self.sim

        def run(done):
            sim.schedule(payload_s, lambda: done(ok), label="payload")

        self.next_id += 1
        return Task(ops=ops, priority_class=self.classes[cls].name,
                    name=f"t{self.next_id}", task_id=self.next_id,
                    requirements=requirements or REQUIREMENTS[req],
                    run=None if payload_s is None else run)

    def apply(self, op):
        kind = op[0]
        if kind == "submit":
            self.queue.submit_bulk([self.task(*spec) for spec in op[1]])
        elif kind == "claim":
            task = self.queue.claim(OFFERS[op[1]])
            if task is not None:
                self.held.append(task)
            return None if task is None else task.task_id
        elif kind == "requeue" and self.held:
            self.queue.requeue(self.held.pop(op[1] % len(self.held)))
        elif kind == "report" and self.held:
            self.queue.report(self.held.pop(op[1] % len(self.held)), op[2])
        elif kind == "advance":
            self.sim.run(until=self.sim.now + op[1])
        elif kind == "trip":
            self.board.record_failure(op[1])
        elif kind == "heal":
            self.board.record_success(op[1])
        elif kind == "pinned":
            self.sim.run(until=self.sim.now + SETTLE_S)
            only = TaskRequirements(sites=frozenset({op[1]}))
            self.queue.submit(self.task(*op[2], requirements=only))
        return None

    def observe(self):
        queue = self.queue
        return {
            "now": self.sim.now,
            "depth": queue.depth(),
            "class_depths": [queue.depth(c.name) for c in self.classes],
            "class_stats": queue.class_stats(),
            "summary": self.monitor.summary(),
            "events": [e.to_dict() for e in self.tracer.events()],
            "pilots": [(p.tasks_run, p.tasks_failed) for p in self.pilots],
        }


@settings(max_examples=150, deadline=None)
@given(weights, st.lists(step, max_size=25))
def test_queue_and_pilots_match_reference(weights, script):
    fast = World(TaskQueueService, PilotWorker, weights)
    ref = World(ReferenceQueue, ReferencePilot, weights)
    for op in script:
        assert fast.apply(op) == ref.apply(op), op
        assert fast.observe() == ref.observe(), op
    fast.sim.run(until=fast.sim.now + 60.0)
    ref.sim.run(until=ref.sim.now + 60.0)
    assert fast.observe() == ref.observe()
