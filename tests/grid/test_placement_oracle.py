"""The grid's minimum-completion-time placement against the scan in
``tests/grid/oracle.py``: one random stream of offloads, over one to four
sites with tied and distinct rates (some of them failing), through uplink
outage windows, drives a :class:`GridInfrastructure` and a
:class:`ReferenceGrid` side by side.  Before each offload both must give
the same ``estimate_offload_time``; over the run, the same results and
callback times, failure reasons, trace events (``grid.dispatch``, with
the chosen site), spans, site tallies and monitor summary
(``grid.jobs_dispatched``), with placement framed as ``grid.schedule``
whenever a profiler is attached."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.grid import ComputeJob, GridInfrastructure, Uplink
from repro.observability.profiling import HookProfiler
from repro.observability.tracer import Tracer
from repro.simkernel import Monitor, Simulator
from tests.grid.oracle import ReferenceGrid

#: (rate, fail_prob); few rates, so ties between sites are common
site = st.tuples(st.sampled_from((1e3, 1e4, 1e5)), st.sampled_from((0.0, 0.0, 0.5)))
#: (gap to the previous offload, ops, input bits, output bits)
offload = st.tuples(
    st.sampled_from((0.0, 0.0, 0.05, 0.5, 3.0)) | st.floats(min_value=0.0, max_value=10.0),
    st.sampled_from((0.0, 1e3, 5e4, 1e6)) | st.floats(min_value=0.0, max_value=1e6),
    st.sampled_from((0.0, 1e3, 1e5)),
    st.sampled_from((0.0, 1e3, 1e5)),
)
#: (start, duration) of an uplink outage
outage = st.tuples(st.floats(min_value=0.0, max_value=60.0),
                   st.floats(min_value=0.1, max_value=20.0))


class World:
    """One grid behind a traced, monitored (optionally profiled) simulator."""

    def __init__(self, grid_cls, sites, outages, profiled):
        self.sim = Simulator()
        self.tracer = Tracer(self.sim)
        self.sim.tracer = self.tracer
        self.profiler = HookProfiler() if profiled else None
        self.sim.profiler = self.profiler
        self.monitor = Monitor()
        uplink = Uplink(self.sim, bandwidth_bps=1e5, latency_s=0.05)
        self.grid = grid_cls(self.sim, site_rates=[rate for rate, _ in sites],
                             uplink=uplink, monitor=self.monitor, tracer=self.tracer)
        for i, (resource, (_, fail_prob)) in enumerate(zip(self.grid.resources, sites)):
            if fail_prob:
                resource.fail_prob = fail_prob
                resource.rng = np.random.default_rng(i)
        for start, duration in outages:
            self.sim.schedule_at(start, lambda: uplink.set_online(False), label="test.down")
            self.sim.schedule_at(start + duration, lambda: uplink.set_online(True),
                                 label="test.up")
        self.log = []

    def run(self, offloads):
        at = 0.0
        for i, (gap, ops, input_bits, output_bits) in enumerate(offloads):
            at += gap
            job = ComputeJob(ops, input_bits, output_bits, name=f"j{i}", job_id=i)
            self.sim.schedule_at(at, lambda j=job: self.offload(j), label="test.offload")
        self.sim.run()
        return self

    def offload(self, job):
        log = self.log
        log.append(("estimate", job.job_id, self.grid.estimate_offload_time(job)))
        self.grid.offload(
            job,
            lambda result: log.append(("done", self.sim.now, result)),
            lambda reason, i=job.job_id: log.append(("failed", i, self.sim.now, reason)))

    def observe(self):
        frames = []
        if self.profiler is not None:
            frames = [(r["name"], r["subsystem"], r["calls"])
                      for r in self.profiler.handlers() if r["name"] == "grid.schedule"]
        return {
            "log": self.log,
            "events": [e.to_dict() for e in self.tracer.events()],
            "records": [r.to_dict() for r in self.tracer.records],
            "summary": self.monitor.summary(),
            "tallies": [(r.jobs_completed, r.jobs_failed, r.busy_seconds)
                        for r in self.grid.resources],
            "frames": frames,
            "now": self.sim.now,
        }


@settings(max_examples=150, deadline=None)
@given(st.lists(site, min_size=1, max_size=4), st.lists(offload, max_size=20),
       st.lists(outage, max_size=3), st.booleans())
@example([(1e4, 0.0)] * 3, [(0.0, 1e3, 0.0, 0.0)] * 4, [], True)  # ties
@example([(1e3, 0.0), (1e5, 0.0)], [(0.0, 5e4, 1e3, 1e3)] * 3, [(0.02, 5.0)], False)
def test_placement_matches_mct_reference(sites, offloads, outages, profiled):
    fast = World(GridInfrastructure, sites, outages, profiled)
    ref = World(ReferenceGrid, sites, outages, profiled)
    observed = fast.run(offloads).observe()
    assert observed == ref.run(offloads).observe()
    dispatches = sum(e["name"] == "grid.dispatch" for e in observed["events"])
    assert dispatches == fast.monitor.counters().get("grid.jobs_dispatched", 0)
    if profiled and dispatches:
        assert observed["frames"] == [("grid.schedule", "grid", dispatches)]
