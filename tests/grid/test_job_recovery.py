"""Tests for job failure, its checkpoint, and uplink outages."""

import math

import numpy as np
import pytest

from repro.grid.infrastructure import GridInfrastructure
from repro.grid.job import ComputeJob
from repro.grid.resource import GridResource
from repro.grid.uplink import Uplink
from repro.simkernel import Monitor, Simulator


class TestFailingResource:
    def test_failure_reports_and_checkpoints(self):
        sim = Simulator()
        site = GridResource(sim, "flaky", 1e6, fail_prob=0.999,
                            rng=np.random.default_rng(0))
        job = ComputeJob(ops=1e6)
        results = []
        site.submit(job, results.append)
        sim.run()
        (r,) = results
        assert not r.success
        assert r.error == "site-failure"
        assert site.jobs_failed == 1 and site.jobs_completed == 0
        assert 0.0 < job.checkpoint_fraction < 1.0
        assert job.remaining_ops == pytest.approx(1e6 * (1 - job.checkpoint_fraction))

    def test_partial_service_occupies_site_partially(self):
        sim = Simulator()
        site = GridResource(sim, "flaky", 1e6, fail_prob=0.999,
                            rng=np.random.default_rng(0))
        job = ComputeJob(ops=1e6)
        site.submit(job)
        sim.run()
        assert 0.0 < site.busy_seconds < 1.0  # full job would be 1.0 s

    def test_fail_prob_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            GridResource(sim, "x", 1e6, fail_prob=0.5)

    def test_failed_attempt_always_advances_clock_or_checkpoint(self):
        """Regression: the progress draw must come from an open interval.

        ``rng.uniform(0.0, 1.0)`` can return exactly 0.0, which made a
        zero-duration, zero-checkpoint failure whose span had
        ``started == finished`` -- an attempt that consumed nothing and
        taught the checkpoint nothing.
        """

        class ZeroUniformRng:
            """Forces a failure whose pre-fix progress draw is exactly 0.0."""

            def random(self):
                return 0.0  # < fail_prob: the job fails

            def uniform(self, low, high):
                return 0.0  # the degenerate draw

        sim = Simulator()
        site = GridResource(sim, "flaky", 1e6, fail_prob=0.5,
                            rng=ZeroUniformRng())
        job = ComputeJob(ops=1e6)
        results = []
        site.submit(job, results.append)
        sim.run()
        (r,) = results
        assert not r.success
        assert r.finished_at > r.started_at or job.checkpoint_fraction > 0.0

    def test_failure_draws_span_open_interval(self):
        """Every failed attempt makes progress, across many real draws."""
        for seed in range(50):
            sim = Simulator()
            site = GridResource(sim, "flaky", 1e6, fail_prob=0.999,
                                rng=np.random.default_rng(seed))
            job = ComputeJob(ops=1e6)
            results = []
            site.submit(job, results.append)
            sim.run()
            (r,) = results
            assert not r.success
            assert r.finished_at > r.started_at
            assert job.checkpoint_fraction > 0.0

    def test_zero_fail_prob_behaves_as_before(self):
        sim = Simulator()
        site = GridResource(sim, "ok", 1e6)
        results = []
        site.submit(ComputeJob(ops=2e6), results.append)
        sim.run()
        assert results[0].success
        assert results[0].service_s == pytest.approx(2.0)


class TestCheckpointedResubmission:
    """The grid runs each job once.  Resubmission from the checkpoint is
    the WMS pilot's requeue (``tests/wms/test_wms.py::TestPilots``)."""

    def test_single_attempt_passes_failure_through(self):
        sim = Simulator()
        monitor = Monitor()
        # the flaky site is much faster, so MCT picks it
        grid = GridInfrastructure(sim, site_rates=(1e9, 1e6), monitor=monitor)
        flaky, steady = grid.resources
        flaky.fail_prob = 0.999
        flaky.rng = np.random.default_rng(1)
        job = ComputeJob(ops=1e6)
        results = []
        grid.offload(job, results.append)
        sim.run()
        (r,) = results
        assert not r.success
        assert r.resource == "site0" and r.error == "site-failure"
        assert 0.0 < job.checkpoint_fraction < 1.0
        assert steady.jobs_completed == steady.jobs_failed == 0
        assert monitor.counter("grid.jobs_dispatched").value == 1


class TestUplinkAvailability:
    def test_subscribers_observe_both_edges(self):
        sim = Simulator()
        uplink = Uplink(sim)
        edges = []
        callback = edges.append
        uplink.subscribe(callback)
        uplink.set_online(False)
        uplink.set_online(False)  # idempotent: no duplicate edge
        uplink.set_online(True)
        assert edges == [False, True]
        assert uplink.outages == 1
        uplink.unsubscribe(callback)
        uplink.set_online(False)
        assert edges == [False, True]  # unsubscribed: no further edges
        uplink.unsubscribe(callback)  # second removal is a no-op


class TestOffloadFailurePaths:
    def test_estimate_offload_time_inf_when_offline(self):
        sim = Simulator()
        grid = GridInfrastructure(sim)
        job = ComputeJob(ops=1e6, input_bits=1e4, output_bits=1e3)
        assert math.isfinite(grid.estimate_offload_time(job))
        grid.uplink.online = False
        assert grid.estimate_offload_time(job) == math.inf

    def test_offload_offline_invokes_on_failure(self):
        sim = Simulator()
        grid = GridInfrastructure(sim)
        grid.uplink.online = False
        failures = []
        grid.offload(ComputeJob(ops=1e6), on_failure=failures.append)
        sim.run()
        assert failures == ["uplink-offline"]

    def test_offload_offline_without_handler_raises(self):
        sim = Simulator()
        grid = GridInfrastructure(sim)
        grid.uplink.online = False
        with pytest.raises(RuntimeError):
            grid.offload(ComputeJob(ops=1e6))

    def test_outage_during_compute_fails_download_leg(self):
        sim = Simulator()
        grid = GridInfrastructure(sim, site_rates=(1e3,))  # slow: 1000 s compute
        completions, failures = [], []
        grid.offload(ComputeJob(ops=1e6, input_bits=1e3, output_bits=1e3),
                     completions.append, failures.append)
        sim.schedule(10.0, lambda: grid.uplink.set_online(False))
        sim.run()
        assert completions == []
        assert failures == ["uplink-offline"]
