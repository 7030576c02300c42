"""Mediating interfaces: composing services across interaction paradigms.

"We need different services following different information exchange
mechanisms to operate together to realize a heterogeneous service
composition platform.  Examples of such mechanisms include services that
follow the message-passing paradigm ..., services that follow the remote
method invocation mechanism like SOAP or agent-based services that
follow a certain agent language.  A good service composition platform
should be able to communicate with all the different services." (§3)

This module provides two foreign-paradigm service hosts and the
*adapter* (§2's "mediating interfaces") that lets the composition
manager drive them through its native invoke/role protocol:

* :class:`RPCServiceAgent` -- a SOAP-style request/response endpoint: it
  understands ``{"method": ..., "args": ...}`` envelopes with content
  type ``"rpc"`` and nothing else.
* :class:`MailboxServiceAgent` -- a message-passing endpoint: raw
  payload in, result posted to a named reply-to mailbox; no
  conversations, no performative semantics.
* :class:`ParadigmAdapter` -- a Ronin agent that *advertises itself* as
  the provider, translates the manager's centralized ``invoke`` and
  distributed ``role``/``data`` messages into the wrapped paradigm, and
  translates results back.  The manager never learns the difference.
"""

from __future__ import annotations

import itertools
import typing

from repro import checks
from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.attributes import AgentAttributes, AgentRole
from repro.agents.envelope import Envelope
from repro.simkernel import Simulator

_rpc_ids = itertools.count()


class RPCServiceAgent(Agent):
    """A SOAP-style RPC endpoint (not a Ronin service).

    Speaks only ``content_type="rpc"`` envelopes shaped
    ``{"call_id", "method", "args"}`` and replies with
    ``{"call_id", "return"}``.  Sending it ACL performatives does
    nothing -- that is the point: it cannot participate in composition
    without a mediating adapter.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        methods: dict[str, typing.Callable[[typing.Any], typing.Any]],
        service_time_s: float = 0.01,
    ) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.SERVICE_PROVIDER))
        self.sim = sim
        self.methods = dict(methods)
        self.service_time_s = checks.non_negative("service_time_s", service_time_s)
        self.calls = 0

    def setup(self) -> None:
        self.on_raw(self._handle_raw)

    def _handle_raw(self, envelope: Envelope) -> None:
        if envelope.content_type != "rpc" or not isinstance(envelope.content, dict):
            return
        request = envelope.content
        method = self.methods.get(str(request.get("method")))
        call_id = request.get("call_id")
        self.calls += 1

        def respond() -> None:
            if self.platform is None:
                return
            if method is None:
                payload = {"call_id": call_id, "fault": f"no such method {request.get('method')!r}"}
            else:
                payload = {"call_id": call_id, "return": method(request.get("args"))}
            self.send(envelope.sender, payload, content_type="rpc")

        self.sim.schedule(self.service_time_s, respond, label=f"rpc:{self.name}")


class MailboxServiceAgent(Agent):
    """A message-passing endpoint: payload in, result to a mailbox.

    Understands ``content_type="msg"`` envelopes whose content is
    ``{"payload", "reply_to"}``; computes and posts
    ``{"payload": result}`` to ``reply_to``.  No correlation ids at all
    (the adapter must serialize calls to correlate).
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        func: typing.Callable[[typing.Any], typing.Any],
        service_time_s: float = 0.01,
    ) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.SERVICE_PROVIDER))
        self.sim = sim
        self.func = func
        self.service_time_s = checks.non_negative("service_time_s", service_time_s)
        self.handled = 0

    def setup(self) -> None:
        self.on_raw(self._handle_raw)

    def _handle_raw(self, envelope: Envelope) -> None:
        if envelope.content_type != "msg" or not isinstance(envelope.content, dict):
            return
        content = envelope.content
        self.handled += 1

        def respond() -> None:
            if self.platform is None:
                return
            self.send(content["reply_to"], {"payload": self.func(content.get("payload"))},
                      content_type="msg")

        self.sim.schedule(self.service_time_s, respond, label=f"msg:{self.name}")


class ParadigmAdapter(Agent):
    """Presents a foreign-paradigm service as a native composition provider.

    Parameters
    ----------
    name:
        Adapter agent name (this is what gets advertised as the
        ``ServiceDescription.provider``).
    backend:
        Name of the wrapped endpoint.
    paradigm:
        ``"rpc"`` or ``"msg"``.
    method:
        For RPC backends: the method name to call.
    """

    def __init__(self, name: str, backend: str, paradigm: str, method: str = "run") -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.FACILITATOR))
        if paradigm not in ("rpc", "msg"):
            raise ValueError("paradigm must be 'rpc' or 'msg'")
        self.backend = backend
        self.paradigm = paradigm
        self.method = method
        #: call id / FIFO queue -> continuation awaiting the backend result
        self._rpc_waiting: dict[typing.Any, typing.Callable[[typing.Any], None]] = {}
        self._msg_queue: list[typing.Callable[[typing.Any], None]] = []
        self.translated = 0
        self._roles: dict[tuple[str, str], dict] = {}

    def setup(self) -> None:
        self.on(Performative.REQUEST, self._handle_request)
        self.on_raw(self._handle_raw)

    # ------------------------------------------------------------------
    # outbound: native protocol -> foreign paradigm
    # ------------------------------------------------------------------
    def _call_backend(self, payload: typing.Any,
                      then: typing.Callable[[typing.Any], None]) -> None:
        self.translated += 1
        if self.paradigm == "rpc":
            call_id = next(_rpc_ids)
            self._rpc_waiting[call_id] = then
            self.send(self.backend,
                      {"call_id": call_id, "method": self.method, "args": payload},
                      content_type="rpc")
        else:
            # message passing has no correlation: serialize via FIFO
            self._msg_queue.append(then)
            self.send(self.backend, {"payload": payload, "reply_to": self.name},
                      content_type="msg")

    def _handle_raw(self, envelope: Envelope) -> None:
        if envelope.content_type == "rpc" and isinstance(envelope.content, dict):
            then = self._rpc_waiting.pop(envelope.content.get("call_id"), None)
            if then is not None and "fault" not in envelope.content:
                then(envelope.content.get("return"))
        elif envelope.content_type == "msg" and isinstance(envelope.content, dict):
            if self._msg_queue:
                self._msg_queue.pop(0)(envelope.content.get("payload"))

    # ------------------------------------------------------------------
    # inbound: the manager's native protocol
    # ------------------------------------------------------------------
    def _handle_request(self, msg: ACLMessage) -> None:
        content = msg.content
        if not isinstance(content, dict):
            self.reply(msg, Performative.FAILURE, "expected dict content")
            return
        kind = content.get("kind")
        if kind == "invoke":
            self._call_backend(
                {"params": content.get("params", {}), "inputs": content.get("inputs", {})},
                lambda result: self.reply(msg, Performative.INFORM, {
                    "kind": "result",
                    "comp_id": content.get("comp_id"),
                    "task": content.get("task"),
                    "payload": result,
                }),
            )
        elif kind == "role":
            key = (content["comp_id"], content["task"])
            self._roles[key] = {
                "content": content,
                "inputs": dict(content.get("initial_inputs", {})),
            }
            self._maybe_run(key)
        elif kind == "data":
            key = (content["comp_id"], content["task"])
            state = self._roles.get(key)
            if state is None:
                return
            state["inputs"][content["from_task"]] = content.get("payload")
            self._maybe_run(key)
        else:
            self.reply(msg, Performative.FAILURE, f"unknown kind {kind!r}")

    def _maybe_run(self, key: tuple[str, str]) -> None:
        state = self._roles.get(key)
        if state is None or state.get("started"):
            return
        content = state["content"]
        if len(state["inputs"]) < int(content.get("n_inputs", 0)):
            return
        state["started"] = True

        def deliver(result: typing.Any) -> None:
            successors = [tuple(s) for s in content.get("successors", [])]
            if successors:
                for agent_name, task_name in successors:
                    self.ask(agent_name, Performative.REQUEST, {
                        "kind": "data",
                        "comp_id": content["comp_id"],
                        "task": task_name,
                        "from_task": content["task"],
                        "payload": result,
                    })
            else:
                self.ask(content["manager"], Performative.INFORM, {
                    "kind": "result",
                    "comp_id": content["comp_id"],
                    "task": content["task"],
                    "payload": result,
                })
            self._roles.pop(key, None)

        self._call_backend(
            {"params": content.get("params", {}), "inputs": state["inputs"]},
            deliver,
        )
