"""The deployed sensor network of Figure 1.

:class:`SensorDeployment` assembles the full in-building picture: sensor
nodes on a lattice (or random scatter), one mains-powered base station,
zero or more handheld devices, all sharing one topology and one wireless
network, sampling one physical field.  Query-execution models
(:mod:`repro.queries.models`) operate on a deployment.
"""

from __future__ import annotations

import typing

import numpy as np

from repro import checks
from repro.simkernel import Monitor, RandomStreams, Simulator
from repro.network.energy import Battery, RadioEnergyModel
from repro.network.mobility import grid_positions, random_positions
from repro.network.network import WirelessNetwork
from repro.network.radio import RadioModel
from repro.network.topology import Topology
from repro.sensors.field import ScalarField, UniformField
from repro.sensors.node import Reading, SensorNode


class SensorDeployment:
    """Sensors + base station + handhelds on one wireless substrate.

    Node-id layout: sensors occupy ids ``0 .. n_sensors-1``, the base
    station is ``n_sensors``, handhelds follow.  The base station and
    handhelds have infinite batteries (mains / user-rechargeable); only
    sensors die.

    Parameters
    ----------
    n_sensors:
        Number of sensor nodes.
    area_m:
        Side of the square deployment area.
    field:
        The physical phenomenon being sensed.
    placement:
        ``"grid"`` (deterministic lattice) or ``"random"``.
    battery_j:
        Initial charge of each sensor battery, joules.
    base_position:
        Where the base station sits (default: area centre edge).
    n_handhelds:
        Number of handheld devices (placed near the base station).
    radio:
        Link model shared by all nodes (default mote radio scaled so the
        lattice is connected).
    """

    def __init__(
        self,
        n_sensors: int,
        area_m: float,
        field: ScalarField | None = None,
        *,
        sim: Simulator | None = None,
        streams: RandomStreams | None = None,
        placement: str = "grid",
        battery_j: float = 1.0,
        base_position: tuple[float, float] | None = None,
        n_handhelds: int = 1,
        radio: RadioModel | None = None,
        energy_model: RadioEnergyModel | None = None,
        noise_std: float = 0.5,
        attribute: str = "temperature",
    ) -> None:
        self.sim = sim or Simulator()
        self.streams = streams or RandomStreams(0)
        self.field = field or UniformField(20.0)
        self.area_m = float(checks.positive("area_m", area_m))
        self.n_sensors = checks.count("n_sensors", n_sensors, 1)
        self.n_handhelds = checks.count("n_handhelds", n_handhelds)
        checks.non_negative("battery_j", battery_j, inf=True)
        self.attribute = attribute

        if placement == "grid":
            sensor_pos = grid_positions(n_sensors, area_m)
        elif placement == "random":
            sensor_pos = random_positions(n_sensors, area_m, self.streams.get("placement"))
        else:
            raise ValueError(f"unknown placement {placement!r}")

        if base_position is None:
            base_position = (area_m / 2.0, -0.05 * area_m)
        base = np.asarray(base_position, dtype=np.float64)[None, :]
        hh_rng = self.streams.get("handhelds")
        handhelds = base + hh_rng.uniform(-0.05 * area_m, 0.05 * area_m, size=(n_handhelds, 2))
        positions = np.vstack([sensor_pos, base, handhelds])

        if radio is None:
            # scale the mote range so the lattice plus base station form a
            # connected graph regardless of n/area
            side = int(np.ceil(np.sqrt(n_sensors)))
            spacing = area_m / max(side - 1, 1)
            radio = RadioModel(
                bandwidth_bps=250_000.0,
                latency_s=0.01,
                loss_prob=0.0,
                range_m=max(spacing * 1.6, 0.12 * area_m),
            )
        self.radio = radio
        self.energy_model = energy_model or RadioEnergyModel()

        self.topology = Topology(positions, range_m=radio.range_m)
        batteries = [Battery(battery_j) for _ in range(n_sensors)]
        batteries += [Battery(float("inf")) for _ in range(1 + n_handhelds)]
        self.monitor = Monitor()
        self.network = WirelessNetwork(
            self.sim,
            self.topology,
            radio,
            self.energy_model,
            batteries=batteries,
            rng=self.streams.get("radio-loss"),
            monitor=self.monitor,
        )

        noise_rng = self.streams.get("sensor-noise")
        self.sensors = [
            SensorNode(
                i,
                positions[i],
                batteries[i],
                self.energy_model,
                noise_rng,
                noise_std=noise_std,
                attribute=attribute,
            )
            for i in range(n_sensors)
        ]

    # ------------------------------------------------------------------
    # id layout
    # ------------------------------------------------------------------
    @property
    def base_station_id(self) -> int:
        """Topology id of the base station."""
        return self.n_sensors

    @property
    def handheld_ids(self) -> list[int]:
        """Topology ids of the handheld devices."""
        first = self.n_sensors + 1
        return list(range(first, first + self.n_handhelds))

    @property
    def sensor_ids(self) -> list[int]:
        """Topology ids of all sensors (dead ones included)."""
        return list(range(self.n_sensors))

    def alive_sensor_ids(self) -> list[int]:
        """Ids of sensors whose batteries are not depleted."""
        return [s.node_id for s in self.sensors if s.alive and self.topology.is_alive(s.node_id)]

    # ------------------------------------------------------------------
    # sensing
    # ------------------------------------------------------------------
    def sample_all(self, t: float | None = None,
                   sensor_ids: typing.Sequence[int] | None = None) -> list[Reading]:
        """One reading from each living sensor at time ``t`` (default now).

        ``sensor_ids`` picks which sensors, in which order (default:
        every sensor, by id); the result equals a :meth:`sample_sensor`
        loop over them -- the same readings, noise draws, battery draws,
        ``samples_taken`` and deaths.

        Field evaluation and noise are vectorized: one ``field.sample_at``
        over every eligible position plus one ``rng.normal(0, std, k)``
        draw, instead of per-sensor scalar calls.  Results are bit
        identical to the scalar path -- field evaluation is elementwise,
        and numpy Generators emit the same stream for one size-k draw as
        for k scalar draws -- so the fast path is taken whenever the fleet
        is homogeneous (shared noise rng and one ``noise_std``, which is
        how this class builds it) and no id repeats (a repeat's second
        sample depends on the first one's battery draw); otherwise the
        per-sensor loop runs.
        """
        time = self.sim.now if t is None else t
        topology = self.topology
        if sensor_ids is None:
            chosen = self.sensors
        else:
            chosen = [self.sensors[i] for i in sensor_ids]
        eligible = [
            s for s in chosen if topology.is_alive(s.node_id) and s.alive
        ]
        if eligible:
            rng = eligible[0].rng
            std = eligible[0].noise_std
            homogeneous = all(
                s.rng is rng and s.noise_std == std for s in eligible
            )
        else:
            homogeneous = True
        repeats = sensor_ids is not None and len(set(sensor_ids)) != len(chosen)
        if repeats or not homogeneous:
            readings = []
            for sensor in chosen:
                if topology.is_alive(sensor.node_id):
                    reading = sensor.sample(self.field, time)
                    if reading is not None:
                        readings.append(reading)
                    if sensor.battery.depleted:
                        topology.kill(sensor.node_id)
            return readings

        readings = []
        if eligible:
            positions = np.stack([s.position for s in eligible])
            values = self.field.sample_at(positions, time)
            # std == 0 must not touch the stream (the scalar path skips
            # the draw entirely in that case)
            noise = rng.normal(0.0, std, len(eligible)) if std else None
            for j, sensor in enumerate(eligible):
                sensor.battery.draw(sensor.energy_model.sense_cost())
                sensor.samples_taken += 1
                # identical float op to the scalar path, 0.0 included
                # (-0.0 + 0.0 flips sign, so the add is never skipped)
                value = float(values[j]) + (float(noise[j]) if noise is not None else 0.0)
                readings.append(
                    Reading(sensor_id=sensor.node_id, time=time,
                            value=value, attribute=sensor.attribute)
                )
                if sensor.battery.depleted:
                    topology.kill(sensor.node_id)
        # sensors already battery-dead but not yet reflected in the
        # topology: the scalar path killed these as it swept past them
        for sensor in chosen:
            if not sensor.alive and topology.is_alive(sensor.node_id):
                topology.kill(sensor.node_id)
        return readings

    def sample_sensor(self, sensor_id: int, t: float | None = None) -> Reading | None:
        """One reading from one sensor (None if dead)."""
        if not self.topology.is_alive(sensor_id):
            return None
        time = self.sim.now if t is None else t
        reading = self.sensors[sensor_id].sample(self.field, time)
        if self.sensors[sensor_id].battery.depleted:
            self.topology.kill(sensor_id)
        return reading

    def true_values(self, t: float | None = None) -> np.ndarray:
        """Noise-free field values at every sensor position (ground truth).

        Free of charge -- used by accuracy experiments, not by protocols.
        """
        time = self.sim.now if t is None else t
        pos = self.topology.positions[: self.n_sensors]
        return self.field.sample_at(pos, time)

    # ------------------------------------------------------------------
    # energy bookkeeping
    # ------------------------------------------------------------------
    def total_sensor_energy_consumed(self) -> float:
        """Joules drawn from all sensor batteries so far."""
        return sum(s.battery.consumed for s in self.sensors)

    def min_sensor_fraction_remaining(self) -> float:
        """Charge fraction of the weakest living sensor (0 if any died)."""
        return min(s.battery.fraction_remaining for s in self.sensors)

    def dead_sensor_count(self) -> int:
        """Number of sensors whose batteries are depleted."""
        return sum(1 for s in self.sensors if not s.alive)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SensorDeployment(n={self.n_sensors}, area={self.area_m} m, "
            f"alive={len(self.alive_sensor_ids())})"
        )
