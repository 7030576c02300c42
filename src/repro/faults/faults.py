"""Scripted fault types.

"Services may be coming up and going down frequently in those
environments ... we will have to resort to fault tolerant compositions"
(§3).  Random exponential churn (:mod:`repro.network.churn`) exercises
*uncorrelated* failure; the fault types here script the *correlated*
failures a pervasive deployment actually sees -- a base station crashing,
a fire taking out every sensor in a wing, a WAN backhaul outage, a storm
degrading every radio link at once, or a building partitioning in two.

Each fault is a small single-use object with an injection time, an
optional recovery duration, and ``inject``/``recover`` methods acting on
a :class:`FaultDomain` (the bundle of subsystem handles the fault needs).
The :class:`~repro.faults.injector.FaultInjector` schedules them on the
shared simulator and emits every transition into the run's
:class:`~repro.simkernel.monitor.Monitor`.
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

from repro.grid.uplink import Uplink
from repro.network.network import WirelessNetwork
from repro.network.topology import Topology
from repro.simkernel import Monitor, Simulator


@dataclasses.dataclass(frozen=True)
class FaultEvent:
    """One entry of a run's fault timeline.

    Attributes
    ----------
    time:
        Virtual time of the transition.
    kind:
        The fault's ``kind`` tag (``"node-crash"``, ``"uplink-outage"``, ...).
    detail:
        Human-readable description of what was hit.
    phase:
        ``"inject"`` or ``"recover"``.
    """

    time: float
    kind: str
    detail: str
    phase: str


@dataclasses.dataclass
class FaultDomain:
    """Handles to the subsystems faults act on.

    All handles except ``sim`` and ``monitor`` are optional; a fault
    raises ``ValueError`` at injection time if the subsystem it needs is
    missing from the domain.

    Attributes
    ----------
    sim / monitor:
        The shared simulator and the run's instrument registry.
    topology:
        Needed by :class:`NodeCrash`, :class:`RegionBlackout`,
        :class:`Partition`.
    network:
        Needed by :class:`LinkDegradation` (its ``radio`` is swapped).
    uplink:
        Needed by :class:`UplinkOutage`.
    radio_holders:
        Extra objects whose ``.radio`` attribute must track the
        degraded/restored radio (e.g. a ``SensorDeployment``, whose radio
        the cost estimators read).  ``network`` is always included.
    on_node_change:
        Optional ``(node_id, up: bool) -> None`` callback fired for every
        node a fault takes down or brings back -- service registries
        subscribe here exactly as they do for churn.
    """

    sim: Simulator
    monitor: Monitor
    topology: Topology | None = None
    network: WirelessNetwork | None = None
    uplink: Uplink | None = None
    radio_holders: tuple = ()
    on_node_change: typing.Callable[[int, bool], None] | None = None

    def require(self, attr: str, fault_kind: str):
        """Fetch a subsystem handle, raising if the domain lacks it."""
        value = getattr(self, attr)
        if value is None:
            raise ValueError(f"fault {fault_kind!r} needs a {attr!r} in its FaultDomain")
        return value

    def all_radio_holders(self) -> list:
        """Every object whose ``.radio`` attribute faults must keep in sync."""
        holders = list(self.radio_holders)
        if self.network is not None and self.network not in holders:
            holders.insert(0, self.network)
        return holders

    def notify(self, node: int, up: bool) -> None:
        """Fire the node-change hook (no-op when unsubscribed)."""
        if self.on_node_change is not None:
            self.on_node_change(node, up)


class Fault:
    """One scripted fault: inject at ``at_s``, recover ``duration_s`` later.

    Parameters
    ----------
    at_s:
        Absolute virtual injection time.
    duration_s:
        Outage length; ``None`` means permanent (no recovery scheduled).

    Fault objects are **single-use**: injection captures state (which
    nodes were actually killed, the pre-fault radio) that recovery
    restores, so schedule a fresh instance per occurrence.
    """

    kind = "abstract"

    def __init__(self, at_s: float, duration_s: float | None = None) -> None:
        if not math.isfinite(at_s) or at_s < 0:
            raise ValueError(f"at_s must be finite and >= 0, got {at_s!r}")
        if duration_s is not None and (not math.isfinite(duration_s) or duration_s <= 0):
            raise ValueError(f"duration_s must be finite and > 0, got {duration_s!r}")
        self.at_s = float(at_s)
        self.duration_s = None if duration_s is None else float(duration_s)

    def describe(self) -> str:
        """Short human-readable target description for the timeline."""
        return ""

    def inject(self, domain: FaultDomain) -> None:
        """Apply the fault to the domain."""
        raise NotImplementedError

    def recover(self, domain: FaultDomain) -> None:
        """Undo the fault (default: nothing to undo)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dur = f", duration={self.duration_s:.3g}s" if self.duration_s else ""
        return f"{type(self).__name__}(at={self.at_s:.3g}s{dur}, {self.describe()})"


class NodeCrash(Fault):
    """One node crashes (process dies, device destroyed) and may reboot.

    Only a node that was alive at injection time is killed, and only a
    node this fault killed is revived -- a crash never resurrects a node
    that died independently (battery depletion, churn).
    """

    kind = "node-crash"

    def __init__(self, node: int, at_s: float, duration_s: float | None = None) -> None:
        super().__init__(at_s, duration_s)
        self.node = int(node)
        if self.node < 0:
            raise ValueError(f"node must be >= 0, got {node!r}")
        self._killed = False

    def describe(self) -> str:
        return f"node {self.node}"

    def inject(self, domain: FaultDomain) -> None:
        topology = domain.require("topology", self.kind)
        if topology.is_alive(self.node):
            topology.kill(self.node)
            self._killed = True
            domain.notify(self.node, False)

    def recover(self, domain: FaultDomain) -> None:
        if not self._killed:
            return
        topology = domain.require("topology", self.kind)
        topology.revive(self.node)
        self._killed = False
        domain.notify(self.node, True)


class RegionBlackout(Fault):
    """Every living node within a disc goes down at once.

    Models the paper's fire scenario knocking out a building wing, or a
    localized power failure.  Victims are captured at injection time, so
    recovery revives exactly the nodes this blackout killed.
    """

    kind = "region-blackout"

    def __init__(
        self,
        center: tuple[float, float],
        radius_m: float,
        at_s: float,
        duration_s: float | None = None,
    ) -> None:
        super().__init__(at_s, duration_s)
        if radius_m <= 0:
            raise ValueError("radius_m must be positive")
        self.center = (float(center[0]), float(center[1]))
        self.radius_m = float(radius_m)
        self.victims: list[int] = []

    def describe(self) -> str:
        return f"disc r={self.radius_m:.3g}m at {self.center}"

    def inject(self, domain: FaultDomain) -> None:
        topology = domain.require("topology", self.kind)
        center = np.asarray(self.center, dtype=np.float64)
        dists = np.linalg.norm(topology.positions - center[None, :], axis=1)
        self.victims = [
            n for n in topology.alive_nodes() if dists[n] <= self.radius_m
        ]
        for node in self.victims:
            topology.kill(node)
            domain.notify(node, False)

    def recover(self, domain: FaultDomain) -> None:
        topology = domain.require("topology", self.kind)
        for node in self.victims:
            topology.revive(node)
            domain.notify(node, True)
        self.victims = []


class LinkDegradation(Fault):
    """Every radio link degrades at once (storm, jamming, interference).

    The network's :class:`~repro.network.radio.RadioModel` is swapped for
    a degraded copy on every radio holder in the domain, and restored on
    recovery -- cost estimators reading ``deployment.radio`` see the
    degradation too, so the Decision Maker can adapt mid-outage.

    Parameters
    ----------
    loss_multiplier / latency_multiplier / bandwidth_multiplier:
        Applied to the current radio's parameters.
    loss_floor:
        Minimum loss probability during the fault (lets a lossless radio
        become lossy; multipliers alone cannot leave zero).
    """

    kind = "link-degradation"

    def __init__(
        self,
        at_s: float,
        duration_s: float | None = None,
        *,
        loss_multiplier: float = 1.0,
        latency_multiplier: float = 1.0,
        bandwidth_multiplier: float = 1.0,
        loss_floor: float = 0.0,
    ) -> None:
        super().__init__(at_s, duration_s)
        if loss_multiplier < 0 or latency_multiplier < 0 or bandwidth_multiplier <= 0:
            raise ValueError("multipliers must be positive (loss/latency may be 0)")
        if not 0.0 <= loss_floor < 1.0:
            raise ValueError("loss_floor must be in [0, 1)")
        self.loss_multiplier = float(loss_multiplier)
        self.latency_multiplier = float(latency_multiplier)
        self.bandwidth_multiplier = float(bandwidth_multiplier)
        self.loss_floor = float(loss_floor)
        self._saved: list[tuple[typing.Any, typing.Any]] = []

    def describe(self) -> str:
        return (
            f"loss x{self.loss_multiplier:.3g} (floor {self.loss_floor:.3g}), "
            f"latency x{self.latency_multiplier:.3g}, bw x{self.bandwidth_multiplier:.3g}"
        )

    def inject(self, domain: FaultDomain) -> None:
        holders = domain.all_radio_holders()
        if not holders:
            raise ValueError(f"fault {self.kind!r} needs a network or radio_holders in its FaultDomain")
        self._saved = [(holder, holder.radio) for holder in holders]
        for holder, radio in self._saved:
            holder.radio = dataclasses.replace(
                radio,
                loss_prob=min(max(radio.loss_prob * self.loss_multiplier, self.loss_floor), 0.999),
                latency_s=radio.latency_s * self.latency_multiplier,
                bandwidth_bps=radio.bandwidth_bps * self.bandwidth_multiplier,
            )

    def recover(self, domain: FaultDomain) -> None:
        for holder, radio in self._saved:
            holder.radio = radio
        self._saved = []


class UplinkOutage(Fault):
    """The WAN backhaul goes dark for a window.

    Drives :meth:`repro.grid.uplink.Uplink.set_online`, so uplink
    subscribers observe both edges of the outage window and deferred
    transfers resume on recovery (when the uplink queues while offline).
    """

    kind = "uplink-outage"

    def describe(self) -> str:
        return "WAN backhaul"

    def inject(self, domain: FaultDomain) -> None:
        domain.require("uplink", self.kind).set_online(False)

    def recover(self, domain: FaultDomain) -> None:
        domain.require("uplink", self.kind).set_online(True)


class Partition(Fault):
    """All links between two node groups are severed (the network splits).

    Unlike a crash, partitioned nodes stay alive and keep serving their
    own side -- exactly the paper's "frequent disconnections" that leave
    each fragment operating on local information.
    """

    kind = "partition"

    def __init__(
        self,
        group_a: typing.Iterable[int],
        group_b: typing.Iterable[int],
        at_s: float,
        duration_s: float | None = None,
    ) -> None:
        super().__init__(at_s, duration_s)
        self.group_a = sorted(set(int(n) for n in group_a))
        self.group_b = sorted(set(int(n) for n in group_b))
        if not self.group_a or not self.group_b:
            raise ValueError("both partition groups must be non-empty")
        if set(self.group_a) & set(self.group_b):
            raise ValueError("partition groups must be disjoint")

    def describe(self) -> str:
        return f"{len(self.group_a)} vs {len(self.group_b)} nodes"

    def inject(self, domain: FaultDomain) -> None:
        domain.require("topology", self.kind).block_links(self.group_a, self.group_b)

    def recover(self, domain: FaultDomain) -> None:
        domain.require("topology", self.kind).unblock_links(self.group_a, self.group_b)
