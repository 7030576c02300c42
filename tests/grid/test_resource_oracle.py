"""The production site against the closure form in ``tests/grid/oracle.py``:
one random schedule of submissions drives a :class:`GridResource` and a
:class:`ReferenceResource` from equal failure seeds, and both must agree on
every result, callback order and time, tally, checkpoint, span and
histogram, while the profiler still files the completions as handler
``job`` in subsystem ``grid``."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.grid.job import ComputeJob
from repro.grid.resource import GridResource
from repro.observability.profiling import HookProfiler
from repro.observability.tracer import Tracer
from repro.simkernel import Monitor, Simulator
from tests.grid.oracle import ReferenceResource

#: (gap to the previous submission, ops, checkpoint already done,
#: with a compute callable, with a completion callback)
submission = st.tuples(
    st.sampled_from((0.0, 0.0, 0.25, 1.0)) | st.floats(min_value=0.0, max_value=5.0),
    st.sampled_from((0.0, 1e6)) | st.floats(min_value=0.0, max_value=1e7),
    st.sampled_from((0.0, 0.0, 0.5)) | st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
    st.booleans(),
)
fail_probs = st.sampled_from((0.0, 0.5, 0.95)) | st.floats(min_value=0.0, max_value=0.99)


class World:
    """One site with a monitor, a tracer and a profiler on its simulator."""

    def __init__(self, site_cls, rate, fail_prob, seed, traced):
        self.sim = Simulator()
        self.tracer = Tracer(self.sim, enabled=traced)
        self.sim.tracer = self.tracer
        self.profiler = HookProfiler()
        self.sim.profiler = self.profiler
        self.monitor = Monitor()
        self.site = site_cls(self.sim, "site", rate, fail_prob=fail_prob,
                             rng=np.random.default_rng(seed))
        self.site.tracer = self.tracer
        self.site.monitor = self.monitor
        self.jobs = []
        self.finishes = []
        self.calls = []

    def run(self, submissions):
        at = 0.0
        for i, (gap, ops, done, compute, callback) in enumerate(submissions):
            at += gap
            job = ComputeJob(ops, compute=(lambda v=ops: 2.0 * v) if compute else None,
                             name=f"j{i}", job_id=i, checkpoint_fraction=done)
            self.jobs.append(job)
            on_complete = self.completed if callback else None
            if at == 0.0:
                self.finishes.append(self.site.submit(job, on_complete))
            else:
                self.sim.schedule_at(at, lambda j=job, cb=on_complete: self.finishes.append(
                    self.site.submit(j, cb)), label="test.submit")
        self.sim.run()
        return self

    def completed(self, result):
        self.calls.append((self.sim.now, result))

    def observe(self):
        site = self.site
        return {
            "calls": self.calls,
            "finishes": self.finishes,
            "tallies": (site.jobs_completed, site.jobs_failed, site.busy_seconds),
            "checkpoints": [job.checkpoint_fraction for job in self.jobs],
            "records": [r.to_dict() for r in self.tracer.records],
            "summary": self.monitor.summary(),
            "now": self.sim.now,
            "handlers": sorted((r["name"], r["calls"]) for r in self.profiler.handlers()),
        }


@settings(max_examples=120, deadline=None)
@given(st.lists(submission, max_size=25), st.sampled_from((1.0, 1e6, 3.7e6)),
       fail_probs, st.integers(min_value=0, max_value=2**32 - 1), st.booleans())
@example([(0.0, 1e6, 0.0, True, True)] * 3, 1e6, 0.95, 0, True)
def test_submit_matches_closure_reference(submissions, rate, fail_prob, seed, traced):
    fast = World(GridResource, rate, fail_prob, seed, traced).run(submissions)
    ref = World(ReferenceResource, rate, fail_prob, seed, traced).run(submissions)
    assert fast.observe() == ref.observe()
    assert len(fast.calls) == sum(s[4] for s in submissions)
    jobs = [r for r in fast.profiler.handlers() if r["name"] == "job"]
    if submissions:
        assert [(r["subsystem"], r["calls"]) for r in jobs] == [("grid", len(submissions))]
