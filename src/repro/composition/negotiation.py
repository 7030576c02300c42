"""Negotiated binding: Contract-Net instead of registry rank.

Registry-rank binding (:class:`~repro.composition.binding.Binder`) trusts
advertised attributes.  Negotiated binding instead runs one Contract-Net
round per task: discovered candidates *bid* with price/deadline
commitments, and the initiator's reputation memory steers awards away
from providers that broke commitments before -- the paper's §2
"negotiate with other agents about ... performance commitments", applied
to composition.
"""

from __future__ import annotations

import typing

from repro import checks
from repro.agents.contractnet import Award, ContractNetInitiator
from repro.composition.binding import Binding
from repro.composition.task import TaskGraph, TaskSpec
from repro.discovery.matcher import MatchResult
from repro.discovery.replica import ReplicatedRegistry


class NegotiatedBinder:
    """Binds a task graph through Contract-Net negotiations.

    Parameters
    ----------
    initiator:
        A registered :class:`~repro.agents.contractnet.ContractNetInitiator`
        (its reputation store persists across bindings).
    registry:
        Used only for *discovery* -- finding which providers to invite to
        each negotiation; selection is by bids, not by rank.
    max_price / deadline_s / collect_window_s:
        Forwarded to each negotiation round.

    Binding is asynchronous (negotiation takes simulated time):
    :meth:`bind_graph` delivers ``{task: Binding}`` or ``None`` through a
    callback, suitable for passing to
    :meth:`~repro.composition.manager.CompositionManager.execute` as
    pre-computed ``bindings``.
    """

    def __init__(
        self,
        initiator: ContractNetInitiator,
        registry: ReplicatedRegistry,
        max_price: float = 100.0,
        deadline_s: float = 60.0,
        collect_window_s: float = 0.5,
    ) -> None:
        self.initiator = initiator
        self.registry = registry
        self.max_price = checks.non_negative("max_price", max_price)
        self.deadline_s = checks.positive("deadline_s", deadline_s)
        self.collect_window_s = checks.non_negative("collect_window_s", collect_window_s)
        self.negotiated = 0

    # ------------------------------------------------------------------
    def _candidates(self, task: TaskSpec) -> list[MatchResult]:
        return self.registry.search(task.to_request())

    def bind_task(
        self,
        task: TaskSpec,
        on_bound: typing.Callable[[Binding | None], None],
    ) -> None:
        """Negotiate one task's provider; callback with the Binding."""
        matches = [m for m in self._candidates(task) if m.service.provider]
        if not matches:
            on_bound(None)
            return
        by_provider = {m.service.provider: m for m in matches}

        def on_award(award: Award) -> None:
            if award.winner is None:
                on_bound(None)
                return
            self.negotiated += 1
            on_bound(Binding(task=task, match=by_provider[award.winner]))

        self.initiator.negotiate(
            contractors=sorted(by_provider),
            task={"category": task.category, "name": task.name, "params": task.params},
            on_complete=on_award,
            max_price=self.max_price,
            deadline_s=self.deadline_s,
            collect_window_s=self.collect_window_s,
        )

    def bind_graph(
        self,
        graph: TaskGraph,
        on_bound: typing.Callable[[dict[str, Binding] | None], None],
    ) -> None:
        """Negotiate every task (concurrently); callback with all bindings.

        Any task without a winning bid fails the whole binding (None).
        """
        tasks = graph.tasks()
        if not tasks:
            on_bound({})
            return
        state = {"bindings": {}, "pending": len(tasks), "failed": False}

        def one_done(task_name: str):
            def cb(binding: Binding | None) -> None:
                if state["failed"]:
                    return
                if binding is None:
                    state["failed"] = True
                    on_bound(None)
                    return
                state["bindings"][task_name] = binding
                state["pending"] -= 1
                if state["pending"] == 0:
                    on_bound(state["bindings"])

            return cb

        for task in tasks:
            self.bind_task(task, one_done(task.name))

    # ------------------------------------------------------------------
    def report_outcome(self, provider: str, committed_s: float, actual_s: float) -> None:
        """Close the commitment loop: feed measured execution back.

        The composition layer observes actual per-provider execution
        times; reporting them here updates the initiator's reputation so
        future awards avoid commitment-breakers (actual > committed).
        """
        on_time = actual_s <= committed_s * 1.05
        self.initiator._update_reputation(provider, on_time)

    def reputation_of(self, provider: str) -> float:
        """The initiator's current reputation estimate for ``provider``."""
        return self.initiator.reputation.get(provider, 1.0)
