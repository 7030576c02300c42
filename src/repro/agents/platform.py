"""The agent platform: registry, dispatch and lifecycle.

The platform is the "open framework that specifies the infrastructure
requirement and the interface guideline for the interaction and
communication between agent-oriented components".  It maps agent names to
deputies, stamps envelopes, and routes every send through the receiver's
deputy -- the only delivery path in the system.
"""

from __future__ import annotations


from repro.simkernel import Monitor, Simulator
from repro.agents.agent import Agent
from repro.agents.deputy import AgentDeputy, DirectDeputy


class AgentPlatform:
    """Name → deputy registry plus the dispatch fabric.

    Parameters
    ----------
    sim:
        Shared simulator.
    monitor:
        Instrumentation (counters ``platform.dispatched``,
        ``platform.undeliverable``).
    """

    def __init__(self, sim: Simulator, monitor: Monitor | None = None) -> None:
        self.sim = sim
        self.monitor = monitor or Monitor()
        self._deputies: dict[str, AgentDeputy] = {}
        self._host_nodes: dict[str, int] = {}

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def register(
        self,
        agent: Agent,
        deputy: AgentDeputy | None = None,
        host_node: int | None = None,
    ) -> AgentDeputy:
        """Register ``agent`` behind ``deputy`` (default: a DirectDeputy).

        ``host_node`` records where the agent physically runs, so network
        deputies of *other* agents can source transmissions correctly.
        """
        if agent.name in self._deputies:
            raise ValueError(f"agent name {agent.name!r} already registered")
        if deputy is None:
            deputy = DirectDeputy(agent, self.sim)
        self._deputies[agent.name] = deputy
        if host_node is not None:
            self._host_nodes[agent.name] = host_node
        elif hasattr(deputy, "host_node"):
            self._host_nodes[agent.name] = deputy.host_node  # type: ignore[attr-defined]
        agent.platform = self
        agent.setup()
        return deputy

    def unregister(self, name: str) -> None:
        """Remove an agent (service goes away)."""
        deputy = self._deputies.pop(name, None)
        self._host_nodes.pop(name, None)
        if deputy is not None:
            deputy.agent.teardown()
            deputy.agent.platform = None

    def is_registered(self, name: str) -> bool:
        """True iff an agent with ``name`` is currently registered."""
        return name in self._deputies

    def agent_names(self) -> list[str]:
        """All registered agent names, sorted."""
        return sorted(self._deputies)

    def agent(self, name: str) -> Agent:
        """The agent object behind ``name`` (KeyError if absent)."""
        return self._deputies[name].agent

    def host_node_of(self, name: str) -> int | None:
        """Topology node an agent runs on (None for unhosted/wired agents)."""
        return self._host_nodes.get(name)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def dispatch(self, envelope) -> bool:
        """Route ``envelope`` to the receiver's deputy.

        Returns False (and counts ``platform.undeliverable``) when the
        receiver is not registered -- the sender can observe this via the
        return value of :meth:`Agent.send`'s platform call chain or by
        timeout, mirroring real open systems where sends to vanished
        services fail silently.
        """
        envelope.sent_at = self.sim.now
        deputy = self._deputies.get(envelope.receiver)
        if deputy is None:
            self.monitor.counter("platform.undeliverable").add()
            return False
        self.monitor.counter("platform.dispatched").add()
        deputy.deliver(envelope)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AgentPlatform(agents={len(self._deputies)})"
