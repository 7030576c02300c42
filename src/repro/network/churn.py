"""Node availability churn.

"Services may be coming up and going down frequently in those
environments." (§3)  :class:`ChurnProcess` toggles a set of nodes between
up and down with exponentially distributed on/off durations, driving both
the topology (dead nodes stop relaying) and any registered listeners
(e.g. service registries that must drop a host's advertisements).
"""

from __future__ import annotations

import typing

import numpy as np

from repro import checks
from repro.simkernel import Simulator
from repro.network.topology import Topology


class ChurnProcess:
    """Exponential on/off availability churn for a set of nodes.

    Parameters
    ----------
    sim, topology:
        The shared simulator and the topology to toggle.
    nodes:
        Node ids subject to churn (e.g. the short-lived mobile service
        hosts; base stations and grid gateways are normally excluded).
    mean_up_s / mean_down_s:
        Mean sojourn times of the up and down states.
    rng:
        Random stream (named, for reproducibility).
    on_change:
        Optional callback ``(node_id, up: bool) -> None`` fired after each
        transition -- registries subscribe here.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        nodes: typing.Iterable[int],
        rng: np.random.Generator,
        mean_up_s: float = 100.0,
        mean_down_s: float = 20.0,
        on_change: typing.Callable[[int, bool], None] | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.nodes = sorted(set(nodes))
        self.rng = rng
        self.mean_up_s = checks.positive("mean_up_s", mean_up_s)
        self.mean_down_s = checks.positive("mean_down_s", mean_down_s)
        self.on_change = on_change
        self.transitions = 0
        self._started = False

    @property
    def availability(self) -> float:
        """Long-run fraction of time a churned node is up."""
        return self.mean_up_s / (self.mean_up_s + self.mean_down_s)

    def start(self) -> None:
        """Schedule the first down-transition for every churned node."""
        if self._started:
            raise RuntimeError("ChurnProcess already started")
        self._started = True
        for node in self.nodes:
            self._schedule_down(node)

    def _schedule_down(self, node: int) -> None:
        delay = float(self.rng.exponential(self.mean_up_s))
        self.sim.schedule(delay, lambda: self._go_down(node), label=f"churn-down:{node}")

    def _go_down(self, node: int) -> None:
        if self.topology.is_alive(node):
            self.topology.kill(node)
            self.transitions += 1
            if self.on_change is not None:
                self.on_change(node, False)
        delay = float(self.rng.exponential(self.mean_down_s))
        self.sim.schedule(delay, lambda: self._go_up(node), label=f"churn-up:{node}")

    def _go_up(self, node: int) -> None:
        if not self.topology.is_alive(node):
            self.topology.revive(node)
            self.transitions += 1
            if self.on_change is not None:
                self.on_change(node, True)
        self._schedule_down(node)
