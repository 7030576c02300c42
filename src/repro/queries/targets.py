"""WHERE-clause evaluation against a deployment.

Predicates may reference:

* ``sensor_id`` -- the topology node id,
* ``room`` -- a coarse spatial cell number (row-major over an
  ``rooms_per_side x rooms_per_side`` partition of the deployment area,
  numbered from 1 like the paper's "room # 210" examples),
* ``x`` / ``y`` -- the sensor position in metres.

Value predicates (on the measured attribute) are intentionally *not*
evaluated here: they require sampling, which costs energy, and are
applied by the execution models after collection.
"""

from __future__ import annotations

from repro.queries.ast import Predicate, Query
from repro.sensors.deployment import SensorDeployment

#: Default spatial partition used for the ``room`` attribute.
DEFAULT_ROOMS_PER_SIDE = 3


def room_of(deployment: SensorDeployment, sensor_id: int, rooms_per_side: int = DEFAULT_ROOMS_PER_SIDE) -> int:
    """Room number (1-based, row-major) of a sensor's position."""
    if rooms_per_side < 1:
        raise ValueError("rooms_per_side must be positive")
    pos = deployment.topology.position_of(sensor_id)
    cell = deployment.area_m / rooms_per_side
    col = min(int(pos[0] / cell), rooms_per_side - 1)
    row = min(int(pos[1] / cell), rooms_per_side - 1)
    return row * rooms_per_side + col + 1


def sensor_attributes(
    deployment: SensorDeployment, sensor_id: int, rooms_per_side: int = DEFAULT_ROOMS_PER_SIDE
) -> dict:
    """The attribute map a WHERE predicate sees for one sensor."""
    pos = deployment.topology.position_of(sensor_id)
    return {
        "sensor_id": sensor_id,
        "room": room_of(deployment, sensor_id, rooms_per_side),
        "x": float(pos[0]),
        "y": float(pos[1]),
    }


def select_targets(
    deployment: SensorDeployment,
    query: Query,
    rooms_per_side: int = DEFAULT_ROOMS_PER_SIDE,
) -> list[int]:
    """Living sensors satisfying every WHERE predicate.

    Predicates over unknown attributes (e.g. the measured value) are
    skipped here -- they filter *readings*, not sensors.  The static
    match depends only on positions, so it is computed once per topology
    version; liveness also reads battery state the version does not
    track, so it is applied on every call.
    """
    static_attrs = {"sensor_id", "room", "x", "y"}
    preds = tuple(p for p in query.where if p.attribute in static_attrs)
    key = ("targets", preds, rooms_per_side, deployment.area_m, deployment.n_sensors)
    matched = deployment.topology.memo(key, _static_match, deployment, preds,
                                       rooms_per_side)
    return [sid for sid in deployment.alive_sensor_ids() if sid in matched]


def _static_match(
    deployment: SensorDeployment,
    preds: tuple[Predicate, ...],
    rooms_per_side: int,
) -> frozenset[int]:
    """Every sensor, dead or alive, whose static attributes satisfy ``preds``."""
    matched = set()
    for sid in deployment.sensor_ids:
        attrs = sensor_attributes(deployment, sid, rooms_per_side)
        if all(p.holds(attrs) for p in preds):
            matched.add(sid)
    return frozenset(matched)
