"""The wireless network façade: hop-by-hop message delivery.

:class:`WirelessNetwork` ties together a :class:`~repro.network.topology.Topology`,
a :class:`~repro.network.radio.RadioModel`, per-node batteries and the
shared simulator.  It delivers messages hop by hop with serialization
delay, propagation latency, per-hop loss, and energy charged to both ends
of each hop; routes are min-hop BFS paths computed against the topology
*as it is when each hop starts*, so mobility and node death affect
in-flight messages (the paper's "frequent disconnections and network
topology changes").
"""

from __future__ import annotations

import copy
import typing

import numpy as np

from repro.simkernel import Simulator, Monitor
from repro.network.energy import Battery, RadioEnergyModel
from repro.network.message import DeliveryReceipt, Message
from repro.network.radio import RadioModel
from repro.network.topology import Topology
from repro.observability.tracer import NOOP_SPAN, NOOP_TRACER, STATUS_ERROR, Tracer


def record_route_cache_metrics(topology: Topology, monitor: Monitor) -> None:
    """Fold the topology's route-cache stats into ``monitor``.

    Records the canonical ``net.route_cache.hits`` / ``.misses`` /
    ``.invalidations`` counters.  Idempotent: each call adds only the
    delta accumulated since the counters were last synced, so it is safe
    to call once per epoch or once at the end of a run.
    """
    for name, total in topology.route_cache_stats.items():
        counter = monitor.counter(f"net.route_cache.{name}")
        delta = total - counter.value
        if delta:
            counter.add(delta)


def _receiver_copy(message: Message) -> Message:
    """A per-receiver copy of a broadcast message.

    Keeps the ``msg_id`` (flooding/gossip dedup by id must keep working)
    but gives the receiver its own ``hops`` list and a shallow copy of the
    payload, so receivers cannot mutate each other's view.  The copy is
    filled slot by slot: the original was validated when it was built, so
    ``__init__``/``__post_init__`` do not run again.
    """
    out = Message.__new__(Message)
    out.src = message.src
    out.dst = message.dst
    out.size_bits = message.size_bits
    out.kind = message.kind
    payload = message.payload
    out.payload = None if payload is None else copy.copy(payload)
    out.hops = message.hops.copy()
    out.msg_id = message.msg_id
    return out


class NetworkNode:
    """One endpoint on the wireless network.

    Attributes
    ----------
    node_id:
        Index into the topology.
    battery:
        Energy reserve; radio activity draws from it.
    receive:
        Application callback ``(Message) -> None`` invoked on delivery;
        settable after construction (agents attach themselves here).
    """

    __slots__ = ("node_id", "battery", "receive", "name")

    def __init__(self, node_id: int, battery: Battery, name: str = "") -> None:
        self.node_id = node_id
        self.battery = battery
        self.receive: typing.Callable[[Message], None] | None = None
        self.name = name or f"node{node_id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NetworkNode({self.node_id}, {self.battery!r})"


class WirelessNetwork:
    """Event-driven multi-hop wireless network.

    Parameters
    ----------
    sim:
        Shared simulator.
    topology:
        Node positions / adjacency.
    radio:
        Link characteristics (bandwidth, latency, loss, range).  The
        topology's range and the radio's range should agree; the topology
        wins for connectivity, the radio drives timing/energy.
    energy_model:
        First-order radio energy model.
    batteries:
        Per-node batteries; nodes with depleted batteries are killed in
        the topology and can no longer relay.
    rng:
        Random stream for loss draws.
    monitor:
        Instrumentation sink (counters: ``net.sent``, ``net.delivered``,
        ``net.dropped``, ``net.hops``, ``net.energy_j``; series:
        ``net.latency``).
    tracer:
        Span/event sink (default: the shared no-op).  Each unicast send
        opens a ``net.send`` span that closes on delivery or drop, with
        ``net.hop`` events per relay -- the hop-level causality the flat
        counters cannot give.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        radio: RadioModel,
        energy_model: RadioEnergyModel | None = None,
        batteries: list[Battery] | None = None,
        rng: np.random.Generator | None = None,
        monitor: Monitor | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.radio = radio
        self.energy_model = energy_model or RadioEnergyModel()
        if batteries is None:
            batteries = [Battery(float("inf")) for _ in range(topology.n_nodes)]
        if len(batteries) != topology.n_nodes:
            raise ValueError("need one battery per topology node")
        self.nodes = [NetworkNode(i, batteries[i]) for i in range(topology.n_nodes)]
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.monitor = monitor or Monitor()
        self.tracer = tracer if tracer is not None else NOOP_TRACER

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(
        self,
        message: Message,
        on_complete: typing.Callable[[DeliveryReceipt], None] | None = None,
    ) -> None:
        """Route ``message`` from ``message.src`` to ``message.dst``.

        Delivery is asynchronous: ``on_complete`` (if given) receives the
        :class:`~repro.network.message.DeliveryReceipt` when the message
        arrives or is dropped.  The destination node's ``receive`` hook is
        invoked on successful delivery.
        """
        if message.dst is None:
            raise ValueError("unicast send requires a destination; use broadcast_local")
        self.monitor.counter("net.sent").add()
        tracer = self.tracer
        span = NOOP_SPAN
        if tracer.enabled:
            span = tracer.span("net.send", msg_id=message.msg_id, src=message.src,
                               dst=message.dst, bits=message.size_bits)
        if not self.topology.is_alive(message.src):
            # a dead radio cannot transmit: no routing, no battery charge
            self._drop(message, 0.0, on_complete, "dead-source", span)
            return
        self._hop(message, message.src, 0.0, on_complete, start_time=self.sim.now, span=span)

    def broadcast_local(self, src: int, message: Message) -> list[int]:
        """Deliver ``message`` to every living neighbor of ``src`` at once.

        Models a single radio broadcast: the sender pays one transmission
        (at full range), each neighbor pays one reception.  Returns the
        ids of neighbors that received it (loss drawn independently per
        receiver).  Used by flooding/gossip.

        Each receiver gets its *own copy* of the message (same ``msg_id``,
        fresh ``hops`` list, shallow-copied payload), exactly as each
        radio decodes its own bytes off the air -- a receiver appending to
        ``message.hops`` or mutating a dict/list payload cannot corrupt
        what the other receivers see.
        """
        if not self.topology.is_alive(src):
            return []
        neighbors = self.topology.neighbors(src)
        bits = message.size_bits
        tx = self.energy_model.tx_cost(bits, self.radio.range_m)
        self._charge((src,), tx)
        energy_counter = self.monitor.counter("net.energy_j")
        energy_counter.add(tx)
        loss = self.radio.loss_prob
        if loss and neighbors:
            # one vectorized draw; numpy Generators produce the identical
            # stream for rng.random(n) and n scalar rng.random() calls, so
            # results match the historical per-neighbor draw bit for bit
            draws = self.rng.random(len(neighbors)).tolist()
            delivered = [nbr for nbr, d in zip(neighbors, draws) if not d < loss]
        else:
            delivered = neighbors
        if delivered:
            rx = self.energy_model.rx_cost(bits)
            self._charge(delivered, rx)
            # n sequential adds, not one add(rx * n): the counter's
            # accumulation order is pinned by tests
            energy_counter.add_repeated(rx, len(delivered))
            # one fan-out event instead of one heap push per receiver:
            # the batched event delivers to every surviving receiver in
            # ascending-id order, exactly the order the per-receiver
            # events (consecutive seq at equal time/priority) fired in
            self._fan_out_later(delivered, _receiver_copy(message), self.radio.hop_time(bits))
        if self.tracer.enabled:
            self.tracer.event("net.broadcast", msg_id=message.msg_id, src=src,
                              reached=len(delivered), neighbors=len(neighbors))
        return delivered

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _hop(
        self,
        message: Message,
        current: int,
        energy_so_far: float,
        on_complete: typing.Callable[[DeliveryReceipt], None] | None,
        start_time: float,
        span=NOOP_SPAN,
    ) -> None:
        dst = message.dst
        assert dst is not None
        if current == dst:
            receipt = DeliveryReceipt(
                delivered=True,
                time=self.sim.now,
                hops=message.hop_count,
                energy_j=energy_so_far,
            )
            self.monitor.counter("net.delivered").add()
            self.monitor.counter("net.hops").add(receipt.hops)
            self.monitor.series("net.latency").record(self.sim.now, self.sim.now - start_time)
            if self.tracer.enabled:
                span.set(hops=receipt.hops, energy_j=receipt.energy_j)
            span.end()
            node = self.nodes[dst]
            if node.receive is not None:
                node.receive(message)
            if on_complete is not None:
                on_complete(receipt)
            return

        profiler = self.sim.profiler
        if profiler is not None and profiler.enabled:
            # routing is the kernel's expected wall-clock hotspot; give it
            # its own frame so flamegraphs separate it from dispatch
            with profiler.frame("net.route", "network"):
                path = self.topology.shortest_path(current, dst)
        else:
            path = self.topology.shortest_path(current, dst)
        if path is None or len(path) < 2:
            self._drop(message, energy_so_far, on_complete, "no-route", span)
            return
        nxt = path[1]

        dist = self.topology.distance(current, nxt)
        tx = self.energy_model.tx_cost(message.size_bits, dist)
        rx = self.energy_model.rx_cost(message.size_bits)
        self._charge((current,), tx)
        self.monitor.counter("net.energy_j").add(tx)

        if self.radio.loss_prob and self.rng.random() < self.radio.loss_prob:
            self._drop(message, energy_so_far + tx, on_complete, "loss", span)
            return

        self._charge((nxt,), rx)
        self.monitor.counter("net.energy_j").add(rx)
        message.hops.append(nxt)
        if self.tracer.enabled:
            span.event("net.hop", msg_id=message.msg_id, src=current, relay=nxt,
                       energy_j=tx + rx)
        delay = self.radio.hop_time(message.size_bits)
        self.sim.schedule(
            delay,
            lambda: self._hop(message, nxt, energy_so_far + tx + rx, on_complete, start_time, span)
            if self.topology.is_alive(nxt)
            else self._drop(message, energy_so_far + tx + rx, on_complete, "dead-node", span),
            label=f"hop:{message.msg_id}",
        )

    def _drop(
        self,
        message: Message,
        energy: float,
        on_complete: typing.Callable[[DeliveryReceipt], None] | None,
        reason: str,
        span=NOOP_SPAN,
    ) -> None:
        self.monitor.counter("net.dropped").add()
        if self.tracer.enabled:
            span.set(drop_reason=reason)
        span.end(STATUS_ERROR)
        if on_complete is not None:
            on_complete(
                DeliveryReceipt(delivered=False, time=self.sim.now, hops=message.hop_count, energy_j=energy, reason=reason)
            )

    def _fan_out_later(self, targets: list[int], snapshot: Message, delay: float) -> None:
        """Schedule one event that delivers ``snapshot`` to every target.

        ``snapshot`` is a frozen copy taken at broadcast time; each
        receiver still gets its own :func:`_receiver_copy` of it at
        delivery, and liveness is re-checked per receiver at fire time --
        both exactly as the historical one-event-per-receiver form did.
        """

        def fan_out() -> None:
            topology = self.topology
            nodes = self.nodes
            for dst in targets:
                node = nodes[dst]
                if topology.is_alive(dst) and node.receive is not None:
                    node.receive(_receiver_copy(snapshot))

        self.sim.schedule(delay, fan_out, label=f"bcast:{snapshot.msg_id}")

    def _charge(self, node_ids: typing.Iterable[int], joules: float) -> None:
        """Draw ``joules`` from each node's battery in turn; a node whose
        battery runs dry leaves the topology (counted once, in
        ``net.node_deaths``)."""
        nodes = self.nodes
        for node_id in node_ids:
            if not nodes[node_id].battery.draw(joules) and self.topology.is_alive(node_id):
                self.topology.kill(node_id)
                self.monitor.counter("net.node_deaths").add()
