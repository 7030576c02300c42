"""Unit tests for the wired-grid substrate."""

import math
import types

import pytest

from repro.grid import (
    ComputeJob,
    GridInfrastructure,
    GridResource,
    JobResult,
    Uplink,
)
from repro.observability.tracer import Tracer
from repro.simkernel import Monitor, Simulator


class TestComputeJob:
    def test_validation(self):
        with pytest.raises(ValueError):
            ComputeJob(ops=-1.0)
        with pytest.raises(ValueError):
            ComputeJob(ops=1.0, input_bits=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["ops", "input_bits", "output_bits"])
    def test_rejects_non_finite_sizes(self, field, value):
        sizes = {"ops": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            ComputeJob(**sizes)

    def test_unique_ids(self):
        assert ComputeJob(ops=1.0).job_id != ComputeJob(ops=1.0).job_id


class TestJobResult:
    def make(self, **kw):
        fields = dict(job_id=7, value=42, submitted_at=1.0, started_at=1.5,
                      finished_at=4.0, resource="s")
        fields.update(kw)
        return JobResult(**fields)

    def test_keyword_build_with_defaults(self):
        r = self.make()
        assert r.job_id == 7 and r.value == 42 and r.resource == "s"
        assert r.success is True and r.error == ""
        failed = self.make(success=False, error="site-failure")
        assert not failed.success and failed.error == "site-failure"

    def test_timeline_properties(self):
        r = self.make()
        assert r.queue_wait_s == 0.5
        assert r.service_s == 2.5
        assert r.turnaround_s == 3.0

    def test_immutable(self):
        r = self.make()
        with pytest.raises(AttributeError):
            r.success = False
        with pytest.raises(AttributeError):
            r.extra = 1

    def test_equal_and_hashed_by_value(self):
        assert self.make() == self.make()
        assert hash(self.make()) == hash(self.make())
        assert len({self.make(), self.make(), self.make(job_id=8)}) == 2
        assert self.make() != self.make(error="late")


class TestGridResource:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0])
    def test_rejects_rate_not_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="finite and positive"):
            GridResource(Simulator(), "s", rate)

    def test_service_time(self):
        sim = Simulator()
        r = GridResource(sim, "s", ops_per_second=100.0)
        assert r.service_time(ComputeJob(ops=250.0)) == pytest.approx(2.5)

    def test_job_completes_at_predicted_time(self):
        sim = Simulator()
        r = GridResource(sim, "s", 100.0)
        results = []
        finish = r.submit(ComputeJob(ops=500.0), results.append)
        sim.run()
        assert finish == pytest.approx(5.0)
        assert results[0].finished_at == pytest.approx(5.0)
        assert results[0].queue_wait_s == 0.0
        assert results[0].service_s == pytest.approx(5.0)

    def test_fifo_queueing(self):
        sim = Simulator()
        r = GridResource(sim, "s", 100.0)
        results = []
        r.submit(ComputeJob(ops=100.0), results.append)
        r.submit(ComputeJob(ops=100.0), results.append)
        sim.run()
        assert results[0].finished_at == pytest.approx(1.0)
        assert results[1].started_at == pytest.approx(1.0)
        assert results[1].finished_at == pytest.approx(2.0)
        assert results[1].queue_wait_s == pytest.approx(1.0)

    def test_estimate_turnaround_includes_backlog(self):
        sim = Simulator()
        r = GridResource(sim, "s", 100.0)
        r.submit(ComputeJob(ops=100.0))
        assert r.estimate_turnaround(ComputeJob(ops=100.0)) == pytest.approx(2.0)

    def test_compute_callable_runs(self):
        sim = Simulator()
        r = GridResource(sim, "s", 100.0)
        results = []
        r.submit(ComputeJob(ops=1.0, compute=lambda: 6 * 7), results.append)
        sim.run()
        assert results[0].value == 42

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            GridResource(Simulator(), "s", 0.0)

    def test_submit_builds_no_closure(self):
        """Completions are slotted records, so a submission allocates no
        function or cells (tests/grid/oracle.py keeps the closure form)."""
        assert GridResource.submit.__code__.co_cellvars == ()
        sim = Simulator()
        r = GridResource(sim, "s", 100.0)
        r.submit(ComputeJob(ops=500.0))
        completion = sim._events.peek().callback
        assert not isinstance(completion, types.FunctionType)
        assert not hasattr(completion, "__dict__")


class TestGridScheduler:
    """Minimum-completion-time placement in :class:`GridInfrastructure`."""

    def offload(self, grid, job):
        results = []
        grid.offload(job, results.append)
        grid.sim.run()
        (result,) = results
        return result

    def test_picks_fastest_when_idle(self):
        sim = Simulator()
        grid = GridInfrastructure(sim, site_rates=(10.0, 1000.0))
        assert self.offload(grid, ComputeJob(ops=100.0)).resource == "site1"

    def test_load_balances_to_idle_site(self):
        sim = Simulator()
        grid = GridInfrastructure(sim, site_rates=(1000.0, 900.0))
        fast = grid.resources[0]
        fast.submit(ComputeJob(ops=100_000.0))  # saturate the fast site
        assert self.offload(grid, ComputeJob(ops=100.0)).resource == "site1"

    def test_submit_dispatches_and_counts(self):
        sim = Simulator()
        monitor = Monitor()
        tracer = Tracer(sim)
        grid = GridInfrastructure(sim, site_rates=(100.0,), monitor=monitor,
                                  tracer=tracer)
        job = ComputeJob(ops=100.0)
        assert self.offload(grid, job).resource == "site0"
        assert monitor.counter("grid.jobs_dispatched").value == 1
        (dispatch,) = [e for e in tracer.events() if e.name == "grid.dispatch"]
        assert dispatch.attrs == {"job_id": job.job_id, "site": "site0", "attempt": 1}

    def test_needs_resources(self):
        with pytest.raises(ValueError, match="at least one site"):
            GridInfrastructure(Simulator(), site_rates=())


class TestUplink:
    def test_transfer_time(self):
        sim = Simulator()
        link = Uplink(sim, bandwidth_bps=1000.0, latency_s=0.5)
        assert link.transfer_time(2000.0) == pytest.approx(2.5)

    def test_transfers_serialize(self):
        sim = Simulator()
        link = Uplink(sim, bandwidth_bps=1000.0, latency_s=0.0)
        t1 = link.transfer(1000.0)
        t2 = link.transfer(1000.0)
        assert t1 == pytest.approx(1.0)
        assert t2 == pytest.approx(2.0)

    def test_callback_at_completion(self):
        sim = Simulator()
        link = Uplink(sim, bandwidth_bps=1000.0, latency_s=0.0)
        times = []
        link.transfer(1000.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [pytest.approx(1.0)]

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Uplink(sim, bandwidth_bps=0.0)
        with pytest.raises(ValueError):
            Uplink(sim, latency_s=-1.0)
        with pytest.raises(ValueError):
            Uplink(sim).transfer_time(-1.0)

    def test_accounting(self):
        sim = Simulator()
        link = Uplink(sim)
        link.transfer(100.0)
        link.transfer(200.0)
        assert link.bits_transferred == 300.0
        assert link.transfers == 2


class TestGridInfrastructure:
    def test_offload_pipeline_timing(self):
        sim = Simulator()
        grid = GridInfrastructure(sim, site_rates=(100.0,), uplink=Uplink(sim, 1000.0, 0.0))
        results = []
        job = ComputeJob(ops=100.0, input_bits=1000.0, output_bits=500.0, compute=lambda: "ok")
        grid.offload(job, results.append)
        sim.run()
        # upload 1s + compute 1s + download 0.5s
        assert results[0].finished_at == pytest.approx(2.5)
        assert results[0].value == "ok"

    def test_estimate_matches_actual_unloaded(self):
        sim = Simulator()
        grid = GridInfrastructure(sim, site_rates=(100.0,), uplink=Uplink(sim, 1000.0, 0.0))
        job = ComputeJob(ops=100.0, input_bits=1000.0, output_bits=500.0)
        est = grid.estimate_offload_time(job)
        results = []
        grid.offload(job, results.append)
        sim.run()
        assert results[0].finished_at == pytest.approx(est)
