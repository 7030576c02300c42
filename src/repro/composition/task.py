"""Task specifications and task graphs."""

from __future__ import annotations

import dataclasses
import heapq

from repro.discovery.constraints import Constraint, Preference
from repro.discovery.description import ServiceRequest


@dataclasses.dataclass
class TaskSpec:
    """One primitive task to be bound to a service.

    Attributes
    ----------
    name:
        Graph-unique task name.
    category:
        Ontology class of the service needed.
    inputs / outputs:
        Data-type classes consumed/produced.
    constraints / preferences:
        Forwarded into the discovery request for this task.
    params:
        Free-form invocation parameters passed to the provider.
    """

    name: str
    category: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    constraints: tuple[Constraint, ...] = ()
    preferences: tuple[Preference, ...] = ()
    params: dict = dataclasses.field(default_factory=dict)

    def to_request(self) -> ServiceRequest:
        """The discovery request that finds a service for this task."""
        return ServiceRequest(
            category=self.category,
            inputs=self.inputs,
            outputs=self.outputs,
            constraints=self.constraints,
            preferences=self.preferences,
        )


class TaskGraph:
    """A DAG of :class:`TaskSpec` with data-flow edges.

    An edge ``a -> b`` means task ``b`` consumes the output of task ``a``.
    The graph is validated acyclic on every edge insertion.
    """

    def __init__(self) -> None:
        self._specs: dict[str, TaskSpec] = {}
        # producer -> consumers and consumer -> producers
        self._succ: dict[str, set[str]] = {}
        self._pred: dict[str, set[str]] = {}

    # ------------------------------------------------------------------
    def add_task(self, spec: TaskSpec) -> None:
        """Add one task (name must be unique)."""
        if spec.name in self._specs:
            raise ValueError(f"duplicate task name {spec.name!r}")
        self._specs[spec.name] = spec
        self._succ[spec.name] = set()
        self._pred[spec.name] = set()

    def add_edge(self, producer: str, consumer: str) -> None:
        """Add a data-flow edge; rejects cycles and unknown tasks."""
        for name in (producer, consumer):
            if name not in self._specs:
                raise KeyError(f"unknown task {name!r}")
        if self._reaches(consumer, producer):
            raise ValueError(f"edge {producer!r}->{consumer!r} creates a cycle")
        self._succ[producer].add(consumer)
        self._pred[consumer].add(producer)

    def _reaches(self, start: str, goal: str) -> bool:
        """Whether a path of data-flow edges leads from ``start`` to ``goal``."""
        stack, seen = [start], {start}
        while stack:
            name = stack.pop()
            if name == goal:
                return True
            for nxt in self._succ[name] - seen:
                seen.add(nxt)
                stack.append(nxt)
        return False

    # ------------------------------------------------------------------
    def task(self, name: str) -> TaskSpec:
        """The spec for ``name`` (KeyError if absent)."""
        return self._specs[name]

    def tasks(self) -> list[TaskSpec]:
        """All specs in topological order (deterministic tie-break)."""
        return [self._specs[n] for n in self.topological_order()]

    def topological_order(self) -> list[str]:
        """Topological order, ties broken lexicographically (Kahn's
        algorithm with a min-heap of ready tasks)."""
        indegree = {name: len(preds) for name, preds in self._pred.items()}
        ready = [name for name, d in indegree.items() if d == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            name = heapq.heappop(ready)
            order.append(name)
            for nxt in self._succ[name]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    heapq.heappush(ready, nxt)
        return order

    def predecessors(self, name: str) -> list[str]:
        """Producers feeding ``name``, sorted."""
        return sorted(self._pred[name])

    def successors(self, name: str) -> list[str]:
        """Consumers of ``name``'s output, sorted."""
        return sorted(self._succ[name])

    def sources(self) -> list[str]:
        """Tasks with no producers, sorted."""
        return sorted(n for n, preds in self._pred.items() if not preds)

    def sinks(self) -> list[str]:
        """Tasks with no consumers, sorted."""
        return sorted(n for n, succs in self._succ.items() if not succs)

    def levels(self) -> list[list[str]]:
        """Antichains executable in parallel (classic level schedule)."""
        depth: dict[str, int] = {}
        for name in self.topological_order():
            preds = self.predecessors(name)
            depth[name] = 1 + max((depth[p] for p in preds), default=-1)
        out: dict[int, list[str]] = {}
        for name, d in depth.items():
            out.setdefault(d, []).append(name)
        return [sorted(out[d]) for d in sorted(out)]

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        edges = sum(len(succs) for succs in self._succ.values())
        return f"TaskGraph(tasks={len(self)}, edges={edges})"
