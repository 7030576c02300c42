"""Sensor nodes and readings."""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import checks
from repro.network.energy import Battery, RadioEnergyModel
from repro.sensors.field import ScalarField


@dataclasses.dataclass(frozen=True)
class Reading:
    """One sensor sample.

    Attributes
    ----------
    sensor_id:
        Topology node id of the sensor that took the sample.
    time:
        Virtual time of the sample.
    value:
        Measured value (field value plus sensor noise).
    attribute:
        What was measured (``"temperature"``, ``"toxin"`` ...).
    """

    sensor_id: int
    time: float
    value: float
    attribute: str = "temperature"

    #: Wire size of one encoded reading: id + timestamp + value + header.
    SIZE_BITS: float = 64.0


class SensorNode:
    """One sensing endpoint.

    The node's radio behaviour lives in the network substrate; this class
    adds the sensing side: sampling the physical field with Gaussian
    noise, paying sampling energy from the shared battery.

    Parameters
    ----------
    node_id:
        Topology node id.
    position:
        Fixed position (embedded sensors do not move).
    battery:
        Shared with the network layer -- radio and sensing both draw here.
    noise_std:
        Standard deviation of additive measurement noise.
    attribute:
        The quantity this sensor measures.
    """

    def __init__(
        self,
        node_id: int,
        position: np.ndarray,
        battery: Battery,
        energy_model: RadioEnergyModel,
        rng: np.random.Generator,
        noise_std: float = 0.5,
        attribute: str = "temperature",
    ) -> None:
        self.node_id = checks.count("node_id", node_id)
        self.position = np.asarray(position, dtype=np.float64)
        self.battery = battery
        self.energy_model = energy_model
        self.rng = rng
        self.noise_std = checks.non_negative("noise_std", noise_std)
        self.attribute = attribute
        self.samples_taken = 0

    @property
    def alive(self) -> bool:
        """False once the battery is depleted."""
        return not self.battery.depleted

    def sample(self, field: ScalarField, t: float) -> Reading | None:
        """Take one sample at time ``t``; None if the node is dead.

        Draws sensing energy; a node that dies *on* this sample still
        returns the reading (the sample completed before the battery hit
        zero is the convention used by TAG-style simulators).
        """
        if not self.alive:
            return None
        self.battery.draw(self.energy_model.sense_cost())
        true_value = field.value_at(self.position, t)
        noise = float(self.rng.normal(0.0, self.noise_std)) if self.noise_std else 0.0
        self.samples_taken += 1
        return Reading(sensor_id=self.node_id, time=t, value=true_value + noise, attribute=self.attribute)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SensorNode({self.node_id}, alive={self.alive})"
