"""Service provider agents.

A :class:`ServiceProviderAgent` hosts one advertised service and executes
invocations.  It supports both coordination styles the paper contrasts:

* **centralized**: the manager sends an ``invoke`` carrying all inputs;
  the provider computes and replies with the result -- every byte flows
  through the coordinator.
* **distributed**: the manager first sends a small ``role`` card (task,
  expected input count, successor providers); data then flows
  provider-to-provider via ``data`` messages, and only sink providers
  report back to the manager.

Failures are *silent*: a provider whose failure draw trips simply never
responds, so managers must detect failure by timeout -- the realistic
failure model for "link and resource failures" in open environments.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import checks
from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.attributes import AgentAttributes, AgentRole
from repro.discovery.description import ServiceDescription
from repro.simkernel import Simulator

#: Executor signature: (params, inputs_by_task) -> result payload.
Executor = typing.Callable[[dict, dict], typing.Any]


def _default_executor(params: dict, inputs: dict) -> dict:
    """Echo executor used when a service has no real computation attached."""
    return {"params": dict(params), "consumed": sorted(inputs)}


@dataclasses.dataclass
class _RoleState:
    """Per-composition execution state in distributed mode."""

    comp_id: str
    task: str
    params: dict
    expected_inputs: int
    successors: list[tuple[str, str]]  # (agent name, task name)
    manager: str
    inputs: dict = dataclasses.field(default_factory=dict)
    started: bool = False


class ServiceProviderAgent(Agent):
    """An agent exporting one service.

    Parameters
    ----------
    name:
        Agent name (also used as ``ServiceDescription.provider``).
    description:
        The advertised profile; its ``ops``/``output_bits`` drive timing
        and message sizes.
    sim:
        Simulator for compute delays.
    compute_rate:
        Host throughput in ops/second (handhelds are slow, grid agents
        fast).
    executor:
        The actual computation (default: echo).
    fail_prob:
        Probability an invocation silently fails.
    rng:
        Random source for failure draws.
    """

    def __init__(
        self,
        name: str,
        description: ServiceDescription,
        sim: Simulator,
        compute_rate: float = 1e8,
        executor: Executor | None = None,
        fail_prob: float = 0.0,
        rng: typing.Any = None,
    ) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.SERVICE_PROVIDER))
        description.provider = name
        self.description = description
        self.sim = sim
        self.compute_rate = checks.positive("compute_rate", compute_rate)
        self.executor = executor or _default_executor
        self.fail_prob = checks.fraction("fail_prob", fail_prob, open_high=True)
        self.rng = rng
        self.invocations = 0
        self.failures_injected = 0
        self._roles: dict[tuple[str, str], _RoleState] = {}

    def setup(self) -> None:
        self.on(Performative.REQUEST, self._handle_request)
        self.on(Performative.CFP, self._handle_cfp)
        self.on(Performative.ACCEPT, self._handle_award)
        self.on(Performative.REJECT, lambda msg: None)

    # ------------------------------------------------------------------
    @property
    def service_time_s(self) -> float:
        """Compute delay per invocation on this host."""
        return self.description.ops / self.compute_rate

    def _fails(self) -> bool:
        if self.fail_prob and self.rng is not None:
            if float(self.rng.random()) < self.fail_prob:
                self.failures_injected += 1
                return True
        return False

    # ------------------------------------------------------------------
    # Contract-Net participation (negotiated binding)
    # ------------------------------------------------------------------
    def _handle_cfp(self, msg: ACLMessage) -> None:
        """Bid on a call for proposals with a performance commitment.

        The committed completion time is this host's real service time
        scaled by the advertised ``commit_factor`` attribute (< 1 means
        the provider over-promises; the initiator's reputation tracking
        will catch it when execution overruns the commitment).
        """
        from repro.agents.contractnet import CallForProposals, Proposal

        cfp = msg.content
        if not isinstance(cfp, CallForProposals):
            self.reply(msg, Performative.FAILURE, "expected CallForProposals")
            return
        category = cfp.task.get("category")
        if category and category != self.description.category:
            self.reply(msg, Performative.REJECT, cfp.cfp_id)
            return
        price = float(self.description.attributes.get("price", self.description.cost))
        commit_factor = float(self.description.attributes.get("commit_factor", 1.0))
        completion = self.service_time_s * commit_factor
        if price > cfp.max_price or completion > cfp.deadline_s:
            self.reply(msg, Performative.REJECT, cfp.cfp_id)
            return
        self.reply(msg, Performative.PROPOSE,
                   Proposal(cfp_id=cfp.cfp_id, contractor=self.name,
                            price=price, completion_s=completion))

    def _handle_award(self, msg: ACLMessage) -> None:
        """Confirm the award (the manager invokes the service later)."""
        content = msg.content
        if isinstance(content, dict) and "cfp" in content:
            self.reply(msg, Performative.INFORM,
                       {"cfp_id": content["cfp"].cfp_id, "result": "reserved"})

    # ------------------------------------------------------------------
    def _handle_request(self, msg: ACLMessage) -> None:
        content = msg.content
        if not isinstance(content, dict):
            self.reply(msg, Performative.FAILURE, "expected dict content")
            return
        kind = content.get("kind")
        if kind == "invoke":
            self._handle_invoke(msg, content)
        elif kind == "role":
            self._handle_role(content)
        elif kind == "data":
            self._handle_data(content)
        else:
            self.reply(msg, Performative.FAILURE, f"unknown kind {kind!r}")

    # -------------------- centralized path ---------------------------
    def _handle_invoke(self, msg: ACLMessage, content: dict) -> None:
        self.invocations += 1
        if self._fails():
            return  # silent failure -> manager timeout
        params = content.get("params", {})
        inputs = content.get("inputs", {})

        def finish() -> None:
            if self.platform is None:
                return  # host went down mid-computation
            result = self.executor(params, inputs)
            self.reply(msg, Performative.INFORM, {
                "kind": "result",
                "comp_id": content.get("comp_id"),
                "task": content.get("task"),
                "payload": result,
            })

        self.sim.schedule(self.service_time_s, finish, label=f"compute:{self.name}")

    # -------------------- distributed path ---------------------------
    def _handle_role(self, content: dict) -> None:
        state = _RoleState(
            comp_id=content["comp_id"],
            task=content["task"],
            params=content.get("params", {}),
            expected_inputs=int(content.get("n_inputs", 0)),
            successors=[tuple(s) for s in content.get("successors", [])],
            manager=content["manager"],
        )
        if "initial_inputs" in content:
            state.inputs.update(content["initial_inputs"])
        self._roles[(state.comp_id, state.task)] = state
        self._maybe_start(state)

    def _handle_data(self, content: dict) -> None:
        key = (content["comp_id"], content["task"])
        state = self._roles.get(key)
        if state is None:
            return  # stale data for a retried/cancelled composition
        state.inputs[content["from_task"]] = content.get("payload")
        self._maybe_start(state)

    def _maybe_start(self, state: _RoleState) -> None:
        if state.started or len(state.inputs) < state.expected_inputs:
            return
        state.started = True
        self.invocations += 1
        if self._fails():
            return  # silent failure

        def finish() -> None:
            if self.platform is None:
                return  # host went down mid-computation
            result = self.executor(state.params, state.inputs)
            if state.successors:
                for agent_name, task_name in state.successors:
                    self.send(
                        agent_name,
                        ACLMessage(
                            Performative.REQUEST,
                            sender=self.name,
                            receiver=agent_name,
                            content={
                                "kind": "data",
                                "comp_id": state.comp_id,
                                "task": task_name,
                                "from_task": state.task,
                                "payload": result,
                            },
                        ),
                        size_bits=self.description.output_bits,
                    )
            else:
                self.send(
                    state.manager,
                    ACLMessage(
                        Performative.INFORM,
                        sender=self.name,
                        receiver=state.manager,
                        content={
                            "kind": "result",
                            "comp_id": state.comp_id,
                            "task": state.task,
                            "payload": result,
                        },
                    ),
                    size_bits=self.description.output_bits,
                )
            self._roles.pop((state.comp_id, state.task), None)

        self.sim.schedule(self.service_time_s, finish, label=f"compute:{self.name}")
