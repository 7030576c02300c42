"""Agent deputies.

"Each service consists of two parts: an Agent Deputy and an Agent.  An
Agent Deputy acts as a front-end interface for the other agents in the
system ... each Agent Deputy must implement a deliver method.  This
delivery abstraction means that depending on their connectivity and
network QoS, agents can deploy deputies that will provide features of
transcoding or disconnection management." (§2)

Three deputies are provided:

* :class:`DirectDeputy` -- in-memory delivery with a fixed small delay
  (agents co-hosted on the wired side).
* :class:`NetworkDeputy` -- delivery over the simulated wireless network,
  with two optional QoS features:

  - *disconnection management*: envelopes addressed to a host that is
    currently down (churn, mobility partition) are buffered and flushed
    when the host returns, instead of being dropped;
  - *transcoding*: when the path to the host is long (low effective
    bandwidth), payloads are transcoded down by a configurable factor
    before transmission.
"""

from __future__ import annotations


from repro import checks
from repro.simkernel import Simulator
from repro.agents.agent import Agent
from repro.agents.envelope import Envelope
from repro.network.message import Message
from repro.network.network import WirelessNetwork


class AgentDeputy:
    """Abstract deputy: the single ``deliver`` method Ronin mandates."""

    def __init__(self, agent: Agent) -> None:
        self.agent = agent
        self.delivered_count = 0
        self.dropped_count = 0

    def deliver(self, envelope: Envelope) -> None:
        """Deliver ``envelope`` to the fronted agent (transport-specific)."""
        raise NotImplementedError

    @property
    def reachable(self) -> bool:
        """Whether the fronted agent can currently be delivered to."""
        return True


class DirectDeputy(AgentDeputy):
    """In-memory delivery with a constant small latency.

    Used for agents on the wired side (brokers on the base station, grid
    service agents) where transport cost is negligible relative to the
    wireless legs.
    """

    def __init__(self, agent: Agent, sim: Simulator, latency_s: float = 0.001) -> None:
        super().__init__(agent)
        self.sim = sim
        self.latency_s = checks.non_negative("latency_s", latency_s)

    def deliver(self, envelope: Envelope) -> None:
        def handoff() -> None:
            self.delivered_count += 1
            self.agent.receive(envelope)

        self.sim.schedule(self.latency_s, handoff, label=f"direct:{envelope.envelope_id}")


class NetworkDeputy(AgentDeputy):
    """Delivery over the wireless substrate, from the sender's host node.

    Parameters
    ----------
    agent:
        The fronted agent.
    network:
        The shared wireless network.
    host_node:
        Topology node the agent lives on.
    buffer_when_down:
        Enable disconnection management: queue envelopes while the host
        is down and flush on reconnect (checked every ``retry_s``).
    transcode_factor / transcode_hop_threshold:
        Enable transcoding: when the current route to the host exceeds
        the hop threshold, shrink envelopes by the factor before sending.
    max_retransmits:
        Link-loss ARQ: a message dropped by per-hop loss is resent up to
        this many times (the transport-level reliability the paper asks
        deputies to provide).  Route failures ("no-route", "dead-node")
        are not retransmitted -- they go to the down-buffer or are
        dropped, depending on ``buffer_when_down``.
    """

    def __init__(
        self,
        agent: Agent,
        network: WirelessNetwork,
        host_node: int,
        *,
        buffer_when_down: bool = False,
        retry_s: float = 1.0,
        transcode_factor: float = 1.0,
        transcode_hop_threshold: int = 3,
        max_buffer: int = 64,
        max_retransmits: int = 5,
    ) -> None:
        super().__init__(agent)
        self.network = network
        self.host_node = checks.count("host_node", host_node)
        self.buffer_when_down = buffer_when_down
        self.retry_s = checks.positive("retry_s", retry_s)
        self.transcode_factor = checks.fraction("transcode_factor", transcode_factor, open_low=True)
        self.transcode_hop_threshold = checks.count("transcode_hop_threshold",
                                                    transcode_hop_threshold)
        self.max_buffer = checks.count("max_buffer", max_buffer)
        self.max_retransmits = checks.count("max_retransmits", max_retransmits)
        self._buffer: list[tuple[int, Envelope]] = []
        self._retry_scheduled = False
        self.transcoded_count = 0
        self.buffered_count = 0
        self.retransmit_count = 0

    @property
    def reachable(self) -> bool:
        """True while the host node is up."""
        return self.network.topology.is_alive(self.host_node)

    def deliver(self, envelope: Envelope) -> None:
        """Deliver from the *sender's* host to this deputy's host.

        The platform calls ``deliver`` on the receiver's deputy, passing
        an envelope whose sender host is resolved via the platform and
        stored in ``envelope.sent_at`` bookkeeping; to keep the deputy
        self-contained we resolve the source node through the platform
        registry attached to the agent.
        """
        src = self._sender_node(envelope)
        self._deliver_from(src, envelope)

    def _sender_node(self, envelope: Envelope) -> int:
        platform = self.agent.platform
        if platform is not None:
            node = platform.host_node_of(envelope.sender)
            if node is not None:
                return node
        return self.host_node  # loopback fallback

    def _deliver_from(self, src: int, envelope: Envelope, attempt: int = 0) -> None:
        if not self.reachable:
            if self.buffer_when_down:
                self._enqueue(src, envelope)
            else:
                self.dropped_count += 1
            return

        env = envelope
        if self.transcode_factor < 1.0:
            path = self.network.topology.shortest_path(src, self.host_node)
            if path is not None and len(path) - 1 > self.transcode_hop_threshold:
                env = envelope.transcoded(self.transcode_factor)
                self.transcoded_count += 1

        message = Message(src=src, dst=self.host_node, size_bits=env.size_bits, kind="envelope", payload=env)

        def on_complete(receipt) -> None:
            if receipt.delivered:
                self.delivered_count += 1
                self.agent.receive(env)
            elif receipt.reason == "loss" and attempt < self.max_retransmits:
                self.retransmit_count += 1
                self._deliver_from(src, envelope, attempt + 1)
            elif self.buffer_when_down:
                self._enqueue(src, envelope)
            else:
                self.dropped_count += 1

        self.network.send(message, on_complete)

    # ------------------------------------------------------------------
    # disconnection management
    # ------------------------------------------------------------------
    def _enqueue(self, src: int, envelope: Envelope) -> None:
        if len(self._buffer) >= self.max_buffer:
            self.dropped_count += 1
            return
        self._buffer.append((src, envelope))
        self.buffered_count += 1
        self._schedule_retry()

    def _schedule_retry(self) -> None:
        if self._retry_scheduled:
            return
        self._retry_scheduled = True
        self.network.sim.schedule(self.retry_s, self._retry, label=f"deputy-retry:{self.agent.name}")

    def _retry(self) -> None:
        self._retry_scheduled = False
        if not self._buffer:
            return
        if not self.reachable:
            self._schedule_retry()
            return
        pending, self._buffer = self._buffer, []
        for src, envelope in pending:
            self._deliver_from(src, envelope)
