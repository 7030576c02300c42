"""The broker agent: discovery as an ACL conversation.

"We are investigating the creation of efficient broker agents to discover
services at a semantic level." (§3)

:class:`BrokerAgent` wraps a registry
(:class:`~repro.discovery.replica.ReplicatedRegistry`) behind the agent
framework: providers ADVERTISE/UNADVERTISE
:class:`~repro.discovery.description.ServiceDescription` payloads, clients
QUERY with :class:`~repro.discovery.description.ServiceRequest` payloads
and receive an INFORM carrying the ranked match list.
"""

from __future__ import annotations

from repro.agents.agent import Agent
from repro.agents.acl import ACLMessage, Performative
from repro.agents.attributes import AgentAttributes, AgentRole
from repro.discovery.description import ServiceDescription, ServiceRequest
from repro.discovery.replica import ReplicatedRegistry


class BrokerAgent(Agent):
    """A discovery broker speaking ACL.

    Parameters
    ----------
    name:
        Agent name.
    registry:
        The backing store/matcher.
    top_k:
        Maximum matches returned per query (None = all).
    """

    def __init__(self, name: str, registry: ReplicatedRegistry, top_k: int | None = 10) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.BROKER))
        self.registry = registry
        self.top_k = top_k

    def setup(self) -> None:
        self.on(Performative.ADVERTISE, self._handle_advertise)
        self.on(Performative.UNADVERTISE, self._handle_unadvertise)
        self.on(Performative.QUERY, self._handle_query)

    # ------------------------------------------------------------------
    def _handle_advertise(self, msg: ACLMessage) -> None:
        desc = msg.content
        if not isinstance(desc, ServiceDescription):
            self.reply(msg, Performative.FAILURE, "expected ServiceDescription")
            return
        self.registry.advertise(desc)
        self.reply(msg, Performative.INFORM, {"registered": desc.name})

    def _handle_unadvertise(self, msg: ACLMessage) -> None:
        name = msg.content
        if not isinstance(name, str):
            self.reply(msg, Performative.FAILURE, "expected service name (str)")
            return
        removed = self.registry.withdraw(name)
        self.reply(msg, Performative.INFORM, {"removed": removed})

    def _handle_query(self, msg: ACLMessage) -> None:
        request = msg.content
        if not isinstance(request, ServiceRequest):
            self.reply(msg, Performative.FAILURE, "expected ServiceRequest")
            return
        matches = self.registry.search(request, top_k=self.top_k)
        self.reply(msg, Performative.INFORM, matches)
