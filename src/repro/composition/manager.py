"""Composition managers: centralized and distributed coordination.

"Most service composition platforms follow a centralized architecture to
coordinate and manage the execution of a composite service. ... in
pervasive grid systems ... centralized architectures are often not the
most appropriate." (§3)

:class:`CompositionManager` executes a bound task graph in one of two
modes:

``centralized``
    The manager invokes each ready task itself, carrying every
    intermediate result through its own host (classic broker-based
    architecture [22, 3, 10]).  Failure detection is per-invocation.

``distributed``
    The manager distributes small role cards, data flows directly
    provider-to-provider, sinks report back.  Fewer and shorter trips
    through the coordinator; failure detection is a per-attempt timeout
    (the manager cannot see inside the pipeline -- the honest price of
    decentralization).

Fault tolerance: on timeout or explicit failure the attempt is abandoned,
tasks are **re-bound** against the registry (churn withdraws dead hosts'
advertisements, so fresh bindings avoid them) and the composition is
retried up to ``max_retries`` times -- the paper's "resort to fault
control mechanisms ... degrade gracefully".
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro import checks
from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.attributes import AgentAttributes, AgentRole
from repro.composition.binding import Binder, Binding, BindingError
from repro.composition.task import TaskGraph
from repro.observability.tracer import NOOP_SPAN, NOOP_TRACER, STATUS_ERROR, STATUS_OK, Tracer
from repro.resilience import BreakerBoard
from repro.simkernel import Monitor, Simulator

_comp_ids = itertools.count()


@dataclasses.dataclass
class CompositionResult:
    """Outcome of one composite-service execution.

    Attributes
    ----------
    success:
        True when every sink task produced a result.
    outputs:
        ``{sink_task_name: payload}`` for completed sinks (possibly
        partial on failure -- graceful degradation).
    latency_s:
        Request-to-completion virtual time.
    attempts:
        Number of executions tried (1 = no retry needed).
    rebinds:
        Services re-bound across retries.
    mode:
        ``"centralized"`` or ``"distributed"``.
    """

    success: bool
    outputs: dict[str, typing.Any]
    latency_s: float
    attempts: int
    rebinds: int
    mode: str

    @property
    def completeness(self) -> float:
        """Filled by the manager: fraction of sinks that completed."""
        return getattr(self, "_completeness", 1.0 if self.success else 0.0)


@dataclasses.dataclass
class _Attempt:
    comp_id: str
    graph: TaskGraph
    bindings: dict[str, Binding]
    on_complete: typing.Callable[[CompositionResult], None]
    started_at: float
    attempts: int
    rebinds: int
    results: dict[str, typing.Any] = dataclasses.field(default_factory=dict)
    done_tasks: set[str] = dataclasses.field(default_factory=set)
    in_flight: set[str] = dataclasses.field(default_factory=set)
    finished: bool = False
    first_started_at: float = 0.0
    timeout_handle: typing.Any = None
    initial_inputs: dict = dataclasses.field(default_factory=dict)
    blacklist: set[str] = dataclasses.field(default_factory=set)
    span: typing.Any = NOOP_SPAN


class CompositionManager(Agent):
    """Drives bound task graphs to completion with retry-on-failure.

    Parameters
    ----------
    name:
        Agent name.
    sim:
        Shared simulator (timeouts).
    binder:
        Used for initial binding and re-binding on retry.
    mode:
        ``"centralized"`` or ``"distributed"``.
    timeout_s:
        Per-attempt timeout.
    max_retries:
        Additional attempts after the first.
    role_card_bits:
        Wire size of the distributed-mode control messages.
    breakers:
        Optional per-provider circuit-breaker board.  When present, every
        (re)bind avoids providers whose breaker is open, timeouts feed
        failures into the suspects' breakers, and successful completions
        feed successes into every bound provider's breaker -- so the
        manager stops re-binding to flapping hosts instead of paying a
        full timeout per flap.
    """

    def __init__(
        self,
        name: str,
        sim: Simulator,
        binder: Binder,
        mode: str = "centralized",
        timeout_s: float = 30.0,
        max_retries: int = 2,
        role_card_bits: float = 256.0,
        breakers: BreakerBoard | None = None,
        monitor: Monitor | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.COMPOSER))
        if mode not in ("centralized", "distributed"):
            raise ValueError("mode must be 'centralized' or 'distributed'")
        self.sim = sim
        self.binder = binder
        self.mode = mode
        self.timeout_s = checks.positive("timeout_s", timeout_s)
        self.max_retries = checks.count("max_retries", max_retries)
        self.role_card_bits = checks.non_negative("role_card_bits", role_card_bits)
        self.breakers = breakers
        self.monitor = monitor
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        self._active: dict[str, _Attempt] = {}
        self.completed = 0
        self.failed = 0

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.monitor is not None:
            self.monitor.counter(name).add(amount)

    def setup(self) -> None:
        self.on(Performative.INFORM, self._handle_inform)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(
        self,
        graph: TaskGraph,
        on_complete: typing.Callable[[CompositionResult], None],
        initial_inputs: dict | None = None,
        bindings: dict[str, Binding] | None = None,
    ) -> str:
        """Start executing ``graph``; returns the composition id.

        ``initial_inputs`` maps source task names to their seed payloads.
        ``bindings`` may be supplied (proactive composition); otherwise
        tasks are bound now (reactive).
        """
        comp_id = f"comp-{next(_comp_ids)}"
        started = self.sim.now
        tracer = self.tracer
        span = NOOP_SPAN
        if tracer.enabled:
            span = tracer.span("composition.execute", comp_id=comp_id,
                               mode=self.mode, tasks=len(list(graph.tasks())))
        try:
            bound = bindings if bindings is not None else self._bind(graph, set())
        except BindingError:
            self.failed += 1
            self._count("composition.failed")
            if tracer.enabled:
                span.set(fail_reason="unbindable")
            span.end(STATUS_ERROR)
            on_complete(CompositionResult(False, {}, 0.0, 1, 0, self.mode))
            return comp_id
        attempt = _Attempt(
            comp_id=comp_id,
            graph=graph,
            bindings=bound,
            on_complete=on_complete,
            started_at=started,
            attempts=1,
            rebinds=0,
            initial_inputs=dict(initial_inputs or {}),
            span=span,
        )
        self._active[comp_id] = attempt
        self._launch(attempt)
        return comp_id

    # ------------------------------------------------------------------
    # attempt lifecycle
    # ------------------------------------------------------------------
    def _launch(self, attempt: _Attempt) -> None:
        attempt.results = {}
        attempt.done_tasks = set()
        attempt.in_flight = set()
        attempt.first_started_at = self.sim.now
        # run under the composition's span so the timeout, dispatched
        # invocations and their network activity inherit its trace
        with self.tracer.use(attempt.span):
            attempt.timeout_handle = self.sim.schedule(
                self.timeout_s, lambda: self._on_timeout(attempt.comp_id), label=f"timeout:{attempt.comp_id}"
            )
            if self.mode == "centralized":
                self._dispatch_ready(attempt)
            else:
                self._distribute_roles(attempt)

    def _finish(self, attempt: _Attempt, success: bool) -> None:
        if attempt.finished:
            return
        attempt.finished = True
        if attempt.timeout_handle is not None:
            attempt.timeout_handle.cancel()
        self._active.pop(attempt.comp_id, None)
        sinks = attempt.graph.sinks()
        outputs = {s: attempt.results[s] for s in sinks if s in attempt.results}
        result = CompositionResult(
            success=success,
            outputs=outputs,
            latency_s=self.sim.now - attempt.started_at,
            attempts=attempt.attempts,
            rebinds=attempt.rebinds,
            mode=self.mode,
        )
        result._completeness = len(outputs) / len(sinks) if sinks else 0.0
        if success:
            self.completed += 1
            self._count("composition.completed")
            if self.breakers is not None:
                for binding in attempt.bindings.values():
                    self.breakers.record_success(binding.provider)
        else:
            self.failed += 1
            self._count("composition.failed")
        self._count("composition.rebinds", attempt.rebinds)
        if self.tracer.enabled:
            attempt.span.set(attempts=attempt.attempts, rebinds=attempt.rebinds,
                             completeness=result._completeness)
        attempt.span.end(STATUS_OK if success else STATUS_ERROR)
        attempt.on_complete(result)

    def _on_timeout(self, comp_id: str) -> None:
        attempt = self._active.get(comp_id)
        if attempt is None or attempt.finished:
            return
        suspects = self._suspect_services(attempt)
        self._count("composition.timeouts")
        if self.tracer.enabled:
            attempt.span.event("composition.timeout", comp_id=comp_id,
                               attempt=attempt.attempts, suspects=len(suspects))
        if self.breakers is not None:
            suspect_providers = {
                b.provider for b in attempt.bindings.values() if b.service_name in suspects
            }
            for provider in suspect_providers:
                self.breakers.record_failure(provider)
        self._retry(attempt, exclude=suspects)

    def _suspect_services(self, attempt: _Attempt) -> set[str]:
        """Services plausibly responsible for the timed-out attempt.

        Centralized coordination sees exactly which invocations hung.
        Distributed coordination cannot see inside the pipeline, so every
        service bound to an uncompleted task is suspect -- the blacklist
        grows across retries until a working combination is found.
        """
        if self.mode == "centralized":
            return {attempt.bindings[t].service_name for t in attempt.in_flight}
        return {
            b.service_name
            for t, b in attempt.bindings.items()
            if t not in attempt.done_tasks
        }

    def _bind(self, graph: TaskGraph, blacklist: set[str]) -> dict[str, Binding]:
        """Bind honoring the blacklist and any open circuit breakers.

        The breaker exclusion is best-effort: when it (alone or combined
        with the blacklist) makes the graph unbindable, it is dropped --
        a provider behind an open breaker is still better than no
        provider at all.
        """
        blocked = self.breakers.blocked_providers() if self.breakers is not None else set()
        if not blocked:
            return self.binder.bind_graph(graph, exclude=blacklist)
        try:
            return self.binder.bind_graph(graph, exclude=blacklist, exclude_providers=blocked)
        except BindingError:
            return self.binder.bind_graph(graph, exclude=blacklist)

    def _retry(self, attempt: _Attempt, exclude: set[str]) -> None:
        if attempt.attempts > self.max_retries:
            self._finish(attempt, success=False)
            return
        attempt.blacklist |= exclude
        old = {t: b.service_name for t, b in attempt.bindings.items()}
        try:
            attempt.bindings = self._bind(attempt.graph, attempt.blacklist)
        except BindingError:
            # blacklist exhausted the pool: forget it and take whatever is
            # still advertised (churned-away hosts are gone from the
            # registry anyway)
            attempt.blacklist.clear()
            try:
                attempt.bindings = self._bind(attempt.graph, attempt.blacklist)
            except BindingError:
                self._finish(attempt, success=False)
                return
        attempt.rebinds += sum(
            1 for t, b in attempt.bindings.items() if old.get(t) != b.service_name
        )
        attempt.attempts += 1
        if self.tracer.enabled:
            attempt.span.event("composition.retry", comp_id=attempt.comp_id,
                               attempt=attempt.attempts, rebinds=attempt.rebinds,
                               excluded=len(exclude))
        self._launch(attempt)

    # ------------------------------------------------------------------
    # centralized mode
    # ------------------------------------------------------------------
    def _dispatch_ready(self, attempt: _Attempt) -> None:
        for task in attempt.graph.tasks():
            name = task.name
            if name in attempt.done_tasks or name in attempt.in_flight:
                continue
            preds = attempt.graph.predecessors(name)
            if any(p not in attempt.done_tasks for p in preds):
                continue
            inputs = {p: attempt.results[p] for p in preds}
            if not preds and name in attempt.initial_inputs:
                inputs["__initial__"] = attempt.initial_inputs[name]
            binding = attempt.bindings[name]
            attempt.in_flight.add(name)
            self.send(
                binding.provider,
                ACLMessage(
                    Performative.REQUEST,
                    sender=self.name,
                    receiver=binding.provider,
                    content={
                        "kind": "invoke",
                        "comp_id": attempt.comp_id,
                        "task": name,
                        "params": task.params,
                        "inputs": inputs,
                    },
                ),
                size_bits=binding.match.service.input_bits,
            )

    def _handle_inform(self, msg: ACLMessage) -> None:
        content = msg.content
        if not isinstance(content, dict) or content.get("kind") != "result":
            return
        attempt = self._active.get(content.get("comp_id", ""))
        if attempt is None or attempt.finished:
            return
        task = content["task"]
        attempt.results[task] = content.get("payload")
        attempt.done_tasks.add(task)
        attempt.in_flight.discard(task)
        if all(s in attempt.done_tasks for s in attempt.graph.sinks()):
            self._finish(attempt, success=True)
            return
        if self.mode == "centralized":
            self._dispatch_ready(attempt)

    # ------------------------------------------------------------------
    # distributed mode
    # ------------------------------------------------------------------
    def _distribute_roles(self, attempt: _Attempt) -> None:
        graph = attempt.graph
        for task in graph.tasks():
            name = task.name
            binding = attempt.bindings[name]
            successors = [
                (attempt.bindings[s].provider, s) for s in graph.successors(name)
            ]
            content: dict = {
                "kind": "role",
                "comp_id": attempt.comp_id,
                "task": name,
                "params": task.params,
                "n_inputs": len(graph.predecessors(name)),
                "successors": successors,
                "manager": self.name,
            }
            if not graph.predecessors(name) and name in attempt.initial_inputs:
                content["initial_inputs"] = {"__initial__": attempt.initial_inputs[name]}
            self.send(
                binding.provider,
                ACLMessage(
                    Performative.REQUEST,
                    sender=self.name,
                    receiver=binding.provider,
                    content=content,
                ),
                size_bits=self.role_card_bits,
            )
