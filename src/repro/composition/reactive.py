"""Reactive and proactive composition.

"We might want to pro-actively compute some generic information about
services required to execute a query which is requested with a high
frequency.  The other approach is to re-actively integrate and execute
services to derive the result of a query." (§3)

Both composers plan with the HTN planner and execute through a
:class:`~repro.composition.manager.CompositionManager`; they differ in
*when discovery happens*:

* :class:`ReactiveComposer` queries the broker agent (over ACL, paying
  real network latency per task) at request time, then executes.
* :class:`ProactiveComposer` performs the same discovery ahead of time
  via :meth:`ProactiveComposer.precompute` and serves requests from the
  cached bindings instantly; failed executions invalidate the cache so
  the next request falls back to fresh discovery.
"""

from __future__ import annotations

import typing

import numpy as np

from repro import checks
from repro.agents.acl import ACLMessage, Performative
from repro.agents.agent import Agent
from repro.agents.attributes import AgentAttributes, AgentRole
from repro.composition.binding import Binding
from repro.composition.manager import CompositionManager, CompositionResult
from repro.composition.planner import HTNPlanner, PlanningError
from repro.composition.task import TaskGraph
from repro.observability.tracer import NOOP_SPAN, STATUS_ERROR, STATUS_OK
from repro.resilience import Hedge, RetryPolicy


class _ComposerBase(Agent):
    """Shared ACL discovery machinery for both composers.

    Discovery runs over the (possibly lossy, possibly partitioned)
    network, so it is guarded by ``discovery_timeout_s``: if the broker's
    replies do not all arrive in time, the discovery attempt fails.  With
    a :class:`~repro.resilience.RetryPolicy` attached the failure is
    retried with exponential backoff (instead of single-shot giving up);
    with a :class:`~repro.resilience.Hedge` attached, unanswered task
    queries are duplicated to the broker after the hedge delay and the
    first usable reply per task wins -- tail tolerance against lossy
    links.

    Parameters
    ----------
    broker:
        The broker agent's name, or a zero-argument callable returning
        it.  A callable is re-resolved on **every** query -- including
        hedge waves and retry attempts -- so discovery that straddles a
        broker failover addresses whichever broker serves the name now
        (pass ``group.active_name`` when running a
        :class:`~repro.discovery.failover.BrokerGroup`).
    retry:
        Backoff policy for whole-discovery retries (None = single shot).
    hedge:
        Duplicate-query policy within one attempt (None = no hedging).
    rng:
        Jitter source for the retry backoff; None keeps deterministic
        (ceiling) delays.
    """

    def __init__(
        self,
        name: str,
        planner: HTNPlanner,
        manager: CompositionManager,
        broker: str | typing.Callable[[], str],
        discovery_timeout_s: float = 30.0,
        retry: RetryPolicy | None = None,
        hedge: Hedge | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(name, AgentAttributes.of(AgentRole.COMPOSER))
        self.planner = planner
        self.manager = manager
        self.broker = broker
        self.discovery_timeout_s = checks.positive("discovery_timeout_s", discovery_timeout_s)
        self.retry = retry
        self.hedge = hedge
        self.rng = rng
        self.discovery_retries = 0
        self.hedged_queries = 0
        self._pending: dict[str, dict] = {}  # conversation id -> discovery context

    def setup(self) -> None:
        self.on(Performative.INFORM, self._handle_inform)
        self.on(Performative.FAILURE, self._handle_failure)

    def _broker_name(self) -> str:
        """The broker to address right now (late-bound for failover)."""
        return self.broker() if callable(self.broker) else self.broker

    # ------------------------------------------------------------------
    def _discover(
        self,
        graph: TaskGraph,
        on_bound: typing.Callable[[dict[str, Binding] | None], None],
    ) -> None:
        """Query the broker for every task; callback with bindings or None."""
        if not graph.tasks():
            on_bound({})
            return
        tracer = self.manager.tracer
        span = NOOP_SPAN
        if tracer.enabled:
            span = tracer.span("composition.discovery", composer=self.name,
                               tasks=len(graph.tasks()))

        def finish(bindings: dict[str, Binding] | None) -> None:
            if tracer.enabled:
                span.set(bound=0 if bindings is None else len(bindings))
            span.end(STATUS_OK if bindings is not None else STATUS_ERROR)
            on_bound(bindings)

        with tracer.use(span):
            self._discover_attempt(graph, finish, attempt=1,
                                   started=self.manager.sim.now, prev_delay=None)

    def _discover_attempt(
        self,
        graph: TaskGraph,
        on_bound: typing.Callable[[dict[str, Binding] | None], None],
        attempt: int,
        started: float,
        prev_delay: float | None,
    ) -> None:
        sim = self.manager.sim
        tasks = graph.tasks()
        context: dict = {"needed": len(tasks), "bindings": {}, "done": False}
        conv_ids: list[str] = []

        def settle(bindings: dict[str, Binding] | None) -> None:
            context["done"] = True
            for cid in conv_ids:
                self._pending.pop(cid, None)
            on_bound(bindings)

        def fail() -> None:
            if context["done"]:
                return
            next_attempt = attempt + 1
            elapsed = sim.now - started
            if self.retry is None or not self.retry.allows(next_attempt, elapsed):
                settle(None)
                return
            delay = self.retry.next_delay(next_attempt, self.rng, prev_delay)
            context["done"] = True
            for cid in conv_ids:
                self._pending.pop(cid, None)
            self.discovery_retries += 1
            if self.manager.monitor is not None:
                self.manager.monitor.counter("resilience.retries").add()
            tracer = self.manager.tracer
            if tracer.enabled:
                tracer.event("resilience.retry", kind="discovery",
                             composer=self.name, attempt=next_attempt,
                             delay_s=delay)
            sim.schedule(
                delay,
                lambda: self._discover_attempt(graph, on_bound, next_attempt, started, delay),
                label=f"discovery-retry:{self.name}",
            )

        context["fail"] = fail
        context["settle"] = settle

        def query(task) -> None:
            msg = self.ask(self._broker_name(), Performative.QUERY, task.to_request())
            self._pending[msg.conversation_id] = {"context": context, "task": task}
            conv_ids.append(msg.conversation_id)

        for task in tasks:
            query(task)

        if self.hedge is not None:
            def launch_hedges(wave: int) -> None:
                if context["done"]:
                    return
                unanswered = [t for t in tasks if t.name not in context["bindings"]]
                if not unanswered:
                    return
                for task in unanswered:
                    query(task)
                    self.hedged_queries += 1
                if self.manager.monitor is not None:
                    self.manager.monitor.counter("resilience.hedges").add(len(unanswered))
                tracer = self.manager.tracer
                if tracer.enabled:
                    tracer.event("resilience.hedge", kind="discovery",
                                 composer=self.name, wave=wave,
                                 duplicated=len(unanswered))
                if wave < self.hedge.max_hedges:
                    sim.schedule(self.hedge.delay_s, lambda: launch_hedges(wave + 1),
                                 label=f"discovery-hedge:{self.name}")

            sim.schedule(self.hedge.delay_s, lambda: launch_hedges(1),
                         label=f"discovery-hedge:{self.name}")

        def on_timeout() -> None:
            if context["done"]:
                return
            fail()

        sim.schedule(self.discovery_timeout_s, on_timeout,
                     label=f"discovery-timeout:{self.name}")

    def _handle_inform(self, msg: ACLMessage) -> None:
        entry = self._pending.pop(msg.in_reply_to or "", None)
        if entry is None:
            return
        context, task = entry["context"], entry["task"]
        if context["done"]:
            return
        if task.name in context["bindings"]:
            return  # a hedged duplicate already answered this task
        matches = msg.content if isinstance(msg.content, list) else []
        usable = [m for m in matches if m.service.provider]
        if not usable:
            context["fail"]()
            return
        context["bindings"][task.name] = Binding(task=task, match=usable[0])
        if len(context["bindings"]) == context["needed"]:
            context["settle"](context["bindings"])

    def _handle_failure(self, msg: ACLMessage) -> None:
        entry = self._pending.pop(msg.in_reply_to or "", None)
        if entry is None:
            return
        context = entry["context"]
        if not context["done"]:
            context["fail"]()


class ReactiveComposer(_ComposerBase):
    """Discover-then-execute at request time ("pure reactive composition",
    as in the paper's notebook/PocketPC prototype [5])."""

    def compose(
        self,
        goal: str,
        on_complete: typing.Callable[[CompositionResult], None],
        params: dict | None = None,
        initial_inputs: dict | None = None,
    ) -> None:
        """Plan, discover over ACL, then execute ``goal``."""
        try:
            graph = self.planner.plan(goal, params)
        except PlanningError:
            on_complete(CompositionResult(False, {}, 0.0, 0, 0, self.manager.mode))
            return

        def bound(bindings: dict[str, Binding] | None) -> None:
            if bindings is None:
                on_complete(CompositionResult(False, {}, 0.0, 0, 0, self.manager.mode))
                return
            self.manager.execute(graph, on_complete, initial_inputs=initial_inputs, bindings=bindings)

        self._discover(graph, bound)


class ProactiveComposer(_ComposerBase):
    """Pre-computed bindings for high-frequency goals.

    Call :meth:`precompute` for the goals expected to be hot; later
    :meth:`compose` calls execute immediately from cache.  A failed
    execution (or a cache miss) falls back to reactive discovery and
    repopulates the cache.
    """

    def __init__(self, name: str, planner: HTNPlanner, manager: CompositionManager,
                 broker: str | typing.Callable[[], str], **kwargs) -> None:
        super().__init__(name, planner, manager, broker, **kwargs)
        self._cache: dict[str, tuple[TaskGraph, dict[str, Binding]]] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    @staticmethod
    def _key(goal: str, params: dict | None) -> str:
        return f"{goal}|{sorted((params or {}).items())!r}"

    def precompute(self, goal: str, params: dict | None = None,
                   on_ready: typing.Callable[[bool], None] | None = None) -> None:
        """Plan and discover now; cache the bindings for later requests."""
        try:
            graph = self.planner.plan(goal, params)
        except PlanningError:
            if on_ready is not None:
                on_ready(False)
            return

        def bound(bindings: dict[str, Binding] | None) -> None:
            if bindings is not None:
                self._cache[self._key(goal, params)] = (graph, bindings)
            if on_ready is not None:
                on_ready(bindings is not None)

        self._discover(graph, bound)

    def invalidate(self, goal: str, params: dict | None = None) -> None:
        """Drop the cached bindings for a goal (stale after failures)."""
        self._cache.pop(self._key(goal, params), None)

    def compose(
        self,
        goal: str,
        on_complete: typing.Callable[[CompositionResult], None],
        params: dict | None = None,
        initial_inputs: dict | None = None,
    ) -> None:
        """Execute from cache; fall back to reactive discovery on a miss."""
        key = self._key(goal, params)
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            graph, bindings = cached

            def done(result: CompositionResult) -> None:
                if not result.success:
                    self.invalidate(goal, params)
                on_complete(result)

            self.manager.execute(graph, done, initial_inputs=initial_inputs, bindings=bindings)
            return

        self.cache_misses += 1
        try:
            graph = self.planner.plan(goal, params)
        except PlanningError:
            on_complete(CompositionResult(False, {}, 0.0, 0, 0, self.manager.mode))
            return

        def bound(bindings: dict[str, Binding] | None) -> None:
            if bindings is None:
                on_complete(CompositionResult(False, {}, 0.0, 0, 0, self.manager.mode))
                return
            self._cache[key] = (graph, bindings)
            self.manager.execute(graph, on_complete, initial_inputs=initial_inputs, bindings=bindings)

        self._discover(graph, bound)
