"""The base-station-to-grid WAN uplink."""

from __future__ import annotations

import typing

from repro import checks
from repro.observability.tracer import NOOP_SPAN, NOOP_TRACER
from repro.simkernel import Simulator


class Uplink:
    """A shared-capacity WAN link between a base station and the grid.

    Transfers are serialized (one pipe): a transfer submitted while
    another is in flight queues behind it.  This models the paper's point
    that shipping raw sensor streams can exceed "the capacity of the
    wireless connections" and the base station's uplink.

    Availability is first-class: :attr:`online` may be toggled directly
    or via :meth:`set_online` (the fault layer drives outage windows
    through it), and subscribers registered with :meth:`subscribe`
    observe every edge.  A transfer started during an outage raises.

    Parameters
    ----------
    bandwidth_bps:
        Link throughput.
    latency_s:
        One-way propagation latency per transfer.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 10e6,
        latency_s: float = 0.05,
    ) -> None:
        self.sim = sim
        self.bandwidth_bps = float(checks.positive("bandwidth_bps", bandwidth_bps))
        self.latency_s = float(checks.non_negative("latency_s", latency_s))
        self._free_at = sim.now
        self.bits_transferred = 0.0
        self.transfers = 0
        self.outages = 0
        self._online = True
        self._subscribers: list[typing.Callable[[bool], None]] = []
        #: Instrumentation sinks, wired by :class:`GridInfrastructure`
        #: (or left as the no-ops).
        self.tracer = NOOP_TRACER
        self.monitor = None

    # ------------------------------------------------------------------
    # availability
    # ------------------------------------------------------------------
    @property
    def online(self) -> bool:
        """WAN availability: False models a backhaul outage -- the
        pervasive layer must then keep computation local."""
        return self._online

    @online.setter
    def online(self, value: bool) -> None:
        self.set_online(bool(value))

    def set_online(self, value: bool) -> None:
        """Flip availability, notifying subscribers on every edge."""
        value = bool(value)
        if value == self._online:
            return
        self._online = value
        if not value:
            self.outages += 1
        if self.tracer.enabled:
            self.tracer.event("grid.uplink_edge", online=value)
        for callback in list(self._subscribers):
            callback(value)

    def subscribe(self, callback: typing.Callable[[bool], None]) -> None:
        """Register an availability observer ``callback(online)``; fired
        on every online/offline edge, after internal state has settled."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: typing.Callable[[bool], None]) -> None:
        """Remove a previously registered observer (no-op if absent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # transfers
    # ------------------------------------------------------------------
    def transfer_time(self, bits: float) -> float:
        """Unloaded transfer time for ``bits`` (no queueing)."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        return bits / self.bandwidth_bps + self.latency_s

    def transfer(self, bits: float, on_complete: typing.Callable[[], None] | None = None) -> float:
        """Start a transfer; returns its finish time.  Raises
        ``RuntimeError`` during an outage."""
        if not self._online:
            raise RuntimeError("uplink is offline")
        start = max(self._free_at, self.sim.now)
        finish = start + self.transfer_time(bits)
        self._free_at = finish
        self.bits_transferred += bits
        self.transfers += 1
        if self.monitor is not None:
            self.monitor.counter("grid.uplink_transfers").add()
        span = NOOP_SPAN
        if self.tracer.enabled:
            span = self.tracer.span("grid.uplink", bits=bits,
                                    wait_s=start - self.sim.now)
        if on_complete is not None or span is not NOOP_SPAN:
            def finish_transfer() -> None:
                span.end()
                if on_complete is not None:
                    on_complete()

            self.sim.schedule(finish - self.sim.now, finish_transfer,
                              label="uplink-transfer")
        return finish
