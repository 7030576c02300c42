"""Contract-Net negotiation with performance commitments.

"These techniques will create a framework where software components/
agents advertise their capabilities, discover other agents, and
*negotiate with other agents about appropriate mediating interfaces or
performance commitments*." (§2)

The classic FIPA Contract-Net protocol over our ACL:

1. the initiator sends ``CFP`` (call for proposals) to candidate
   contractors, carrying the task description and its requirements;
2. each contractor replies ``PROPOSE`` with a *commitment* -- the price
   and completion deadline it is willing to be held to -- or ``REJECT``;
3. the initiator picks the best proposal, sends ``ACCEPT`` to the winner
   and ``REJECT`` to the losers;
4. the winner performs the task and must deliver by its committed
   deadline; the initiator records whether the commitment was honoured
   (the reputation signal used to weight future awards).

:class:`ContractNetInitiator` and :class:`ContractNetContractor` are
mixable agent roles; the composition layer uses them for *negotiated
binding* as an alternative to registry-rank binding.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro import checks
from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.attributes import AgentAttributes, AgentRole
from repro.simkernel import Simulator

_cfp_ids = itertools.count()


@dataclasses.dataclass(frozen=True)
class CallForProposals:
    """The CFP payload.

    Attributes
    ----------
    cfp_id:
        Unique id correlating the whole negotiation.
    task:
        Free-form task descriptor (e.g. the service category + params).
    max_price:
        The initiator's reserve price; contractors above it should
        decline.
    deadline_s:
        Latest acceptable completion time (relative, seconds).
    """

    cfp_id: str
    task: dict
    max_price: float
    deadline_s: float


@dataclasses.dataclass(frozen=True)
class Proposal:
    """A contractor's commitment.

    Attributes
    ----------
    cfp_id:
        The negotiation this answers.
    contractor:
        Agent name making the commitment.
    price:
        Offered price (generic units).
    completion_s:
        Committed completion time (relative, seconds).
    """

    cfp_id: str
    contractor: str
    price: float
    completion_s: float


@dataclasses.dataclass
class Award:
    """The initiator's record of one completed negotiation."""

    cfp_id: str
    winner: str | None
    proposal: Proposal | None
    proposals_received: int
    completed: bool = False
    on_time: bool = False
    result: typing.Any = None


class ContractNetContractor(Agent):
    """An agent that bids on CFPs and honours (or breaks) commitments.

    Parameters
    ----------
    name:
        Agent name.
    sim:
        Simulator (for execution delays).
    capability:
        Predicate over the CFP's ``task`` dict: can this contractor do it?
    price_fn / time_fn:
        Quotes for a given task: offered price and committed completion
        time.  Defaults: unit price, fixed 1 s.
    executor:
        Performs the task at award time; its return value is delivered.
    overrun_factor:
        Actual completion time = committed * factor (>1 models an agent
        that over-promises; the initiator's reputation tracking punishes
        it).
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        capability: typing.Callable[[dict], bool] = lambda task: True,
        price_fn: typing.Callable[[dict], float] = lambda task: 1.0,
        time_fn: typing.Callable[[dict], float] = lambda task: 1.0,
        executor: typing.Callable[[dict], typing.Any] = lambda task: None,
        overrun_factor: float = 1.0,
    ) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.SERVICE_PROVIDER))
        self.sim = sim
        self.capability = capability
        self.price_fn = price_fn
        self.time_fn = time_fn
        self.executor = executor
        self.overrun_factor = checks.positive("overrun_factor", overrun_factor)
        self.bids_made = 0
        self.awards_won = 0

    def setup(self) -> None:
        self.on(Performative.CFP, self._handle_cfp)
        self.on(Performative.ACCEPT, self._handle_accept)
        self.on(Performative.REJECT, lambda msg: None)

    def _handle_cfp(self, msg: ACLMessage) -> None:
        cfp = msg.content
        if not isinstance(cfp, CallForProposals):
            self.reply(msg, Performative.FAILURE, "expected CallForProposals")
            return
        if not self.capability(cfp.task):
            self.reply(msg, Performative.REJECT, cfp.cfp_id)
            return
        price = float(self.price_fn(cfp.task))
        completion = float(self.time_fn(cfp.task))
        if price > cfp.max_price or completion > cfp.deadline_s:
            self.reply(msg, Performative.REJECT, cfp.cfp_id)
            return
        self.bids_made += 1
        self.reply(msg, Performative.PROPOSE,
                   Proposal(cfp_id=cfp.cfp_id, contractor=self.name,
                            price=price, completion_s=completion))

    def _handle_accept(self, msg: ACLMessage) -> None:
        content = msg.content
        if not isinstance(content, dict) or "cfp" not in content:
            return
        cfp: CallForProposals = content["cfp"]
        proposal: Proposal = content["proposal"]
        self.awards_won += 1
        actual = proposal.completion_s * self.overrun_factor

        def deliver() -> None:
            if self.platform is None:
                return
            self.reply(msg, Performative.INFORM, {
                "cfp_id": cfp.cfp_id,
                "result": self.executor(cfp.task),
            })

        self.sim.schedule(actual, deliver, label=f"contract:{cfp.cfp_id}")


class ContractNetInitiator(Agent):
    """Runs Contract-Net negotiations and tracks contractor reputation.

    Reputation: exponentially weighted on-time delivery rate per
    contractor (start optimistic at 1.0); awards are ranked by
    ``price + time_weight * completion`` divided by reputation, so agents
    that break commitments need to underbid to win again.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        time_weight: float = 1.0,
        reputation_memory: float = 0.7,
        timeout_factor: float = 3.0,
    ) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.CLIENT))
        self.sim = sim
        self.time_weight = checks.non_negative("time_weight", time_weight)
        self.reputation_memory = checks.fraction("reputation_memory", reputation_memory)
        self.timeout_factor = checks.positive("timeout_factor", timeout_factor)
        self.reputation: dict[str, float] = {}
        self._live: dict[str, dict] = {}
        self.negotiations = 0

    def setup(self) -> None:
        self.on(Performative.PROPOSE, self._handle_propose)
        self.on(Performative.REJECT, self._handle_decline)
        self.on(Performative.INFORM, self._handle_inform)

    # ------------------------------------------------------------------
    def negotiate(
        self,
        contractors: list[str],
        task: dict,
        on_complete: typing.Callable[[Award], None],
        max_price: float = 10.0,
        deadline_s: float = 10.0,
        collect_window_s: float = 1.0,
    ) -> str:
        """Start one Contract-Net round; returns the cfp id.

        Proposals are collected for ``collect_window_s``; the award then
        goes to the best proposal (or the Award reports no winner).
        """
        if not contractors:
            raise ValueError("need at least one contractor")
        cfp = CallForProposals(
            cfp_id=f"cfp-{next(_cfp_ids)}",
            task=dict(task),
            max_price=max_price,
            deadline_s=deadline_s,
        )
        self.negotiations += 1
        state = {
            "cfp": cfp,
            "proposals": [],
            "declined": 0,
            "n_contractors": len(contractors),
            "on_complete": on_complete,
            "awarded": False,
            "award": None,
            "accept_msg_conv": None,
            "award_time": None,
        }
        self._live[cfp.cfp_id] = state
        for contractor in contractors:
            self.ask(contractor, Performative.CFP, cfp)
        self.sim.schedule(collect_window_s, lambda: self._award(cfp.cfp_id),
                          label=f"award:{cfp.cfp_id}")
        return cfp.cfp_id

    # ------------------------------------------------------------------
    def _score(self, proposal: Proposal) -> float:
        rep = self.reputation.get(proposal.contractor, 1.0)
        return (proposal.price + self.time_weight * proposal.completion_s) / max(rep, 0.05)

    def _handle_propose(self, msg: ACLMessage) -> None:
        proposal = msg.content
        if not isinstance(proposal, Proposal):
            return
        state = self._live.get(proposal.cfp_id)
        if state is None or state["awarded"]:
            return
        state["proposals"].append((proposal, msg))

    def _handle_decline(self, msg: ACLMessage) -> None:
        cfp_id = msg.content if isinstance(msg.content, str) else None
        state = self._live.get(cfp_id or "")
        if state is not None:
            state["declined"] += 1

    def _award(self, cfp_id: str) -> None:
        state = self._live.get(cfp_id)
        if state is None or state["awarded"]:
            return
        state["awarded"] = True
        proposals = state["proposals"]
        award = Award(
            cfp_id=cfp_id,
            winner=None,
            proposal=None,
            proposals_received=len(proposals),
        )
        if not proposals:
            self._live.pop(cfp_id, None)
            state["on_complete"](award)
            return
        proposals.sort(key=lambda pm: (self._score(pm[0]), pm[0].contractor))
        best, best_msg = proposals[0]
        award.winner = best.contractor
        award.proposal = best
        state["award"] = award
        state["award_time"] = self.sim.now
        self.reply(best_msg, Performative.ACCEPT,
                   {"cfp": state["cfp"], "proposal": best})
        for proposal, msg in proposals[1:]:
            self.reply(msg, Performative.REJECT, cfp_id)
        # commitment watchdog
        self.sim.schedule(
            best.completion_s * self.timeout_factor,
            lambda: self._check_timeout(cfp_id),
            label=f"contract-watchdog:{cfp_id}",
        )

    def _handle_inform(self, msg: ACLMessage) -> None:
        content = msg.content
        if not isinstance(content, dict) or "cfp_id" not in content:
            return
        state = self._live.pop(content["cfp_id"], None)
        if state is None or state["award"] is None:
            return
        award: Award = state["award"]
        elapsed = self.sim.now - state["award_time"]
        award.completed = True
        award.on_time = elapsed <= award.proposal.completion_s * 1.05
        award.result = content.get("result")
        self._update_reputation(award.winner, award.on_time)
        state["on_complete"](award)

    def _check_timeout(self, cfp_id: str) -> None:
        state = self._live.pop(cfp_id, None)
        if state is None or state["award"] is None:
            return
        award: Award = state["award"]
        award.completed = False
        award.on_time = False
        self._update_reputation(award.winner, False)
        state["on_complete"](award)

    def _update_reputation(self, contractor: str, on_time: bool) -> None:
        prev = self.reputation.get(contractor, 1.0)
        m = self.reputation_memory
        self.reputation[contractor] = m * prev + (1.0 - m) * (1.0 if on_time else 0.0)
