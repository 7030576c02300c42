"""Binding tasks to discovered services.

:class:`Binder` turns each task into a
:class:`~repro.discovery.description.ServiceRequest`, searches the
discovery registry (a :class:`~repro.discovery.replica.ReplicatedRegistry`,
at any shard count) and takes the best-ranked match with a provider.
"""

from __future__ import annotations

import dataclasses

from repro.composition.task import TaskGraph, TaskSpec
from repro.discovery.matcher import MatchResult
from repro.discovery.replica import ReplicatedRegistry


class BindingError(Exception):
    """Raised when no service matches a task."""


@dataclasses.dataclass
class Binding:
    """A task bound to a concrete service instance."""

    task: TaskSpec
    match: MatchResult

    @property
    def provider(self) -> str:
        """The agent name to invoke."""
        return self.match.service.provider

    @property
    def service_name(self) -> str:
        """The bound service's instance name."""
        return self.match.service.name


class Binder:
    """Resolves every task of a graph to the best available service.

    Parameters
    ----------
    registry:
        The discovery registry (a broker's store).
    """

    def __init__(self, registry: ReplicatedRegistry) -> None:
        self.registry = registry
        self.bind_count = 0

    def bind_task(
        self,
        task: TaskSpec,
        exclude: set[str] | None = None,
        exclude_providers: set[str] | None = None,
    ) -> Binding:
        """Bind one task; ``exclude`` names services to avoid (failed
        ones), ``exclude_providers`` names host agents to avoid (e.g.
        providers whose circuit breaker is open).

        Raises :class:`BindingError` when nothing matches.
        """
        self.bind_count += 1
        matches = self.registry.search(task.to_request())
        exclude = exclude or set()
        exclude_providers = exclude_providers or set()
        for match in matches:
            if match.service.name in exclude:
                continue
            if match.service.provider in exclude_providers:
                continue
            if match.service.provider:
                return Binding(task=task, match=match)
        raise BindingError(f"no service for task {task.name!r} (category {task.category!r})")

    def bind_graph(
        self,
        graph: TaskGraph,
        exclude: set[str] | None = None,
        exclude_providers: set[str] | None = None,
    ) -> dict[str, Binding]:
        """Bind every task; raises on the first unbindable task."""
        return {
            task.name: self.bind_task(task, exclude, exclude_providers)
            for task in graph.tasks()
        }

    def total_advertised_cost(self, bindings: dict[str, Binding]) -> float:
        """Sum of the bound services' advertised costs (optimization metric)."""
        return sum(b.match.service.cost for b in bindings.values())
