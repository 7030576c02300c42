"""Node placement and mobility models.

The paper stresses "dynamic network topologies" and "extreme variability"
as the qualitative difference from fixed-grid computing.  We provide:

* :func:`grid_positions` / :func:`random_positions` -- initial placement.
* :class:`StaticPlacement` -- no movement (building-embedded sensors).
* :class:`RandomWaypoint` -- the standard ad-hoc mobility model, used for
  handhelds, field units and mobile service hosts.

Mobility models advance in fixed ticks driven by the simulator; each tick
updates all positions vectorized and pushes them into the
:class:`~repro.network.topology.Topology` in one call.
"""

from __future__ import annotations

import numpy as np

from repro import checks
from repro.simkernel import Simulator
from repro.network.topology import Topology


def grid_positions(n: int, area_m: float) -> np.ndarray:
    """Place ``n`` nodes on a near-square lattice filling ``area_m``².

    Used for building-embedded sensor deployments; deterministic.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    side = int(np.ceil(np.sqrt(n)))
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    pts = np.stack([xs.ravel(), ys.ravel()], axis=1).astype(np.float64)[:n]
    if side > 1:
        pts *= area_m / (side - 1)
    else:
        pts[:] = area_m / 2.0
    return pts


def random_positions(n: int, area_m: float, rng: np.random.Generator) -> np.ndarray:
    """Place ``n`` nodes uniformly at random in the square ``[0, area_m]²``."""
    if n <= 0:
        raise ValueError("n must be positive")
    return rng.uniform(0.0, area_m, size=(n, 2))


class StaticPlacement:
    """A mobility model that never moves anything (embedded sensors)."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    def start(self, sim: Simulator) -> None:
        """No-op; present for interface symmetry with mobile models."""


class RandomWaypoint:
    """Random-waypoint mobility over a square area.

    Each mobile node picks a uniform destination and a uniform speed in
    ``[speed_min, speed_max]``, travels straight to it, pauses
    ``pause_s``, then repeats.  Positions are integrated in discrete ticks
    of ``tick_s`` seconds; all node updates in a tick are one vectorized
    pass.

    Parameters
    ----------
    topology:
        The topology whose nodes move.
    mobile_nodes:
        Ids of the nodes this model controls (others stay put).
    area_m:
        Side of the square arena.
    speed_min, speed_max:
        Speed range, m/s.
    pause_s:
        Pause at each waypoint, seconds.
    tick_s:
        Integration step, seconds.
    rng:
        Random source (from a named stream for reproducibility).
    """

    def __init__(
        self,
        topology: Topology,
        mobile_nodes: list[int],
        area_m: float,
        rng: np.random.Generator,
        speed_min: float = 0.5,
        speed_max: float = 2.0,
        pause_s: float = 5.0,
        tick_s: float = 1.0,
    ) -> None:
        if checks.positive("speed_max", speed_max) < checks.positive("speed_min", speed_min):
            raise ValueError("require speed_min <= speed_max")
        self.topology = topology
        self.mobile_nodes = np.asarray(sorted(mobile_nodes), dtype=np.intp)
        self.area_m = float(checks.positive("area_m", area_m))
        self.rng = rng
        self.speed_min = speed_min
        self.speed_max = speed_max
        self.pause_s = checks.non_negative("pause_s", pause_s)
        self.tick_s = checks.positive("tick_s", tick_s)
        m = len(self.mobile_nodes)
        self._targets = rng.uniform(0.0, area_m, size=(m, 2))
        self._speeds = rng.uniform(speed_min, speed_max, size=m)
        self._pause_left = np.zeros(m)
        self.ticks = 0

    def start(self, sim: Simulator) -> None:
        """Begin ticking on ``sim`` until the simulation ends."""
        sim.schedule(self.tick_s, lambda: self._tick(sim), label="mobility-tick")

    def _tick(self, sim: Simulator) -> None:
        self.step(self.tick_s)
        sim.schedule(self.tick_s, lambda: self._tick(sim), label="mobility-tick")

    def step(self, dt: float) -> None:
        """Advance all mobile nodes by ``dt`` seconds (vectorized)."""
        if len(self.mobile_nodes) == 0:
            return
        pos = self.topology.positions[self.mobile_nodes].copy()

        pausing = self._pause_left > 0.0
        self._pause_left[pausing] = np.maximum(self._pause_left[pausing] - dt, 0.0)

        moving = ~pausing
        if moving.any():
            delta = self._targets[moving] - pos[moving]
            dist = np.hypot(delta[:, 0], delta[:, 1])
            step = self._speeds[moving] * dt
            arrive = step >= dist

            # Nodes that arrive snap to target, start pausing, pick new waypoint.
            arrived_idx = np.flatnonzero(moving)[arrive]
            pos[arrived_idx] = self._targets[arrived_idx]
            self._pause_left[arrived_idx] = self.pause_s
            n_arrived = len(arrived_idx)
            if n_arrived:
                self._targets[arrived_idx] = self.rng.uniform(0.0, self.area_m, size=(n_arrived, 2))
                self._speeds[arrived_idx] = self.rng.uniform(self.speed_min, self.speed_max, size=n_arrived)

            # Nodes still travelling move along the unit direction.
            going_idx = np.flatnonzero(moving)[~arrive]
            if len(going_idx):
                d = dist[~arrive]
                unit = delta[~arrive] / d[:, None]
                pos[going_idx] += unit * (self._speeds[going_idx] * dt)[:, None]

        full = self.topology.positions.copy()
        full[self.mobile_nodes] = pos
        self.topology.move_all(full)
        self.ticks += 1
