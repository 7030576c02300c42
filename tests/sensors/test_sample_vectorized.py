"""Vectorized sample_all: bit-identity with the per-sensor scalar path."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sensors.deployment import SensorDeployment
from repro.sensors.field import FireField, UniformField
from repro.simkernel import RandomStreams


def legacy_sample_all(dep, t=None):
    """The historical scalar path, kept as the reference oracle."""
    time = dep.sim.now if t is None else t
    readings = []
    for sensor in dep.sensors:
        if dep.topology.is_alive(sensor.node_id):
            reading = sensor.sample(dep.field, time)
            if reading is not None:
                readings.append(reading)
            if sensor.battery.depleted:
                dep.topology.kill(sensor.node_id)
    return readings


def make_deployment(seed, **kw):
    streams = RandomStreams(seed)
    field = FireField(100.0, streams.get("fire"))
    defaults = dict(battery_j=2e-4, noise_std=0.4)
    defaults.update(kw)
    return SensorDeployment(25, 100.0, field, streams=streams, **defaults)


def as_tuples(readings):
    return [(r.sensor_id, r.time, r.value, r.attribute) for r in readings]


class TestVectorizedSampling:
    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_scalar_path(self, seed):
        """Same readings, same RNG stream, same deaths, over a run long
        enough that batteries deplete along the way."""
        fast = make_deployment(seed)
        slow = make_deployment(seed)
        for step in range(15):
            a = fast.sample_all(float(step))
            b = legacy_sample_all(slow, float(step))
            assert as_tuples(a) == as_tuples(b)
            assert fast.alive_sensor_ids() == slow.alive_sensor_ids()
        assert fast.total_sensor_energy_consumed() == \
            slow.total_sensor_energy_consumed()
        assert [s.samples_taken for s in fast.sensors] == \
            [s.samples_taken for s in slow.sensors]

    def test_zero_noise_does_not_touch_stream(self):
        """noise_std=0 must draw nothing (the scalar path skipped the
        draw), so later consumers of the stream see identical values."""
        dep = make_deployment(1, noise_std=0.0)
        rng = dep.sensors[0].rng
        state_before = rng.bit_generator.state["state"]["state"]
        dep.sample_all(0.0)
        assert rng.bit_generator.state["state"]["state"] == state_before

    def test_readings_are_noise_free_when_std_zero(self):
        dep = make_deployment(2, noise_std=0.0)
        readings = dep.sample_all(0.0)
        truth = dep.true_values(0.0)
        assert [r.value for r in readings] == [float(v) for v in truth]

    def test_heterogeneous_fleet_falls_back(self):
        """A sensor with its own noise profile forces the scalar path;
        results still come back for every living sensor."""
        dep = make_deployment(3)
        dep.sensors[4].noise_std = 1.5  # de-homogenize
        readings = dep.sample_all(0.0)
        assert len(readings) == 25
        assert sorted(r.sensor_id for r in readings) == list(range(25))

    def test_dead_sensors_skipped_and_killed_in_topology(self):
        dep = make_deployment(4, battery_j=1e-12)  # dies on first sample
        first = dep.sample_all(0.0)
        assert len(first) == 25  # the depleting sample still returns
        second = dep.sample_all(1.0)
        assert second == []
        assert dep.alive_sensor_ids() == []
        assert dep.dead_sensor_count() == 25

    def test_uniform_field_values(self):
        streams = RandomStreams(0)
        dep = SensorDeployment(9, 30.0, UniformField(21.5), streams=streams,
                               noise_std=0.0)
        readings = dep.sample_all(0.0)
        assert [r.value for r in readings] == [21.5] * 9


def sample_sensor_loop(dep, ids, t):
    """What the execution models did before ``sample_all`` took ids."""
    readings = []
    for sid in ids:
        reading = dep.sample_sensor(sid, t)
        if reading is not None:
            readings.append(reading)
    return readings


def sensor_state(dep):
    return (dep.sensors[0].rng.bit_generator.state,
            [s.battery.remaining for s in dep.sensors],
            [s.samples_taken for s in dep.sensors],
            dep.alive_sensor_ids(),
            [dep.topology.is_alive(i) for i in range(dep.topology.n_nodes)])


id_lists = st.one_of(
    st.lists(st.integers(0, 24), max_size=25, unique=True),
    st.lists(st.integers(0, 24), max_size=30),  # repeats take the scalar loop
)


class TestSubsetSampling:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 3),
           heterogeneous=st.booleans(),
           rounds=st.lists(st.tuples(id_lists, st.lists(st.integers(0, 24), max_size=3)),
                           min_size=1, max_size=8))
    # a target whose battery is empty while its topology node is alive
    @example(seed=1, heterogeneous=False, rounds=[([5, 3, 1], [3])])
    # the heterogeneous-fleet fallback
    @example(seed=2, heterogeneous=True, rounds=[([9, 7, 14], [])])
    # a repeated id whose battery dies part-way through the list
    @example(seed=3, heterogeneous=False, rounds=[([4] * 9 + [2], [])])
    def test_subset_equals_sample_sensor_loop(self, seed, heterogeneous, rounds):
        """Ordered id lists, with batteries emptied between rounds behind
        the topology's back: the same readings, noise stream, energy,
        sample counts and deaths as a ``sample_sensor`` loop."""
        fast = make_deployment(seed, battery_j=4e-7)
        slow = make_deployment(seed, battery_j=4e-7)
        if heterogeneous:
            for dep in (fast, slow):
                dep.sensors[7].noise_std = 1.5
        for step, (ids, drained) in enumerate(rounds):
            for dep in (fast, slow):
                for sid in drained:
                    dep.sensors[sid].battery.draw(1.0)
            a = fast.sample_all(float(step), sensor_ids=ids)
            b = sample_sensor_loop(slow, ids, float(step))
            assert as_tuples(a) == as_tuples(b)
            assert sensor_state(fast) == sensor_state(slow)
        assert fast.total_sensor_energy_consumed() == slow.total_sensor_energy_consumed()
