"""A description-logic-lite ontology.

Stands in for DAML+OIL: a directed acyclic class hierarchy (multiple
parents allowed) supporting the reasoning the semantic matcher needs --
subsumption, least common subsumers and a semantic distance.  The RDF/XML
serialization of DAML is irrelevant to matching behaviour, so we model
only the taxonomy.

Reasoning reads one memoized structure per class: its *hops-up map*, the
minimum number of parent hops from the class to itself and to each of
its ancestors.  Its keys are the ancestor closure, and its entry for the
root is the class's depth.  Maps are built lazily, one BFS per class,
and :meth:`Ontology.add_class` -- the only mutator -- drops them all and
bumps :attr:`Ontology.version`, which memos held elsewhere (the
matcher's per-category-pair degrees) key on.
"""

from __future__ import annotations

import collections
import typing


class Ontology:
    """A rooted DAG of classes.

    Every class except the root has at least one parent.  Class names are
    case-sensitive strings.
    """

    def __init__(self, root: str = "Thing") -> None:
        self.root = root
        self._parents: dict[str, set[str]] = {root: set()}
        self._children: dict[str, set[str]] = {root: set()}
        self._up: dict[str, dict[str, int]] = {}  # memoized _hops_up maps
        #: bumped by every new edge; memos of derived reasoning key on it
        self.version = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_class(self, name: str, parents: typing.Iterable[str] | str | None = None) -> None:
        """Add class ``name`` under ``parents`` (default: the root).

        Re-adding an existing class adds any new parent edges (DAML's
        monotone extension behaviour).  Cycles are rejected.  Every new
        edge drops the memoized reasoning; it is rebuilt on demand.
        """
        if isinstance(parents, str):
            parents = [parents]
        parent_list = list(parents) if parents else [self.root]
        for p in parent_list:
            if p not in self._parents:
                raise KeyError(f"unknown parent class {p!r}")
        if name not in self._parents:
            self._parents[name] = set()
            self._children[name] = set()
        for p in parent_list:
            if p == name or self.subsumes(name, p):
                raise ValueError(f"adding {name!r} under {p!r} would create a cycle")
            self._parents[name].add(p)
            self._children[p].add(name)
            self._up.clear()
            self.version += 1

    def has_class(self, name: str) -> bool:
        """True iff ``name`` is defined."""
        return name in self._parents

    def classes(self) -> list[str]:
        """All class names, sorted."""
        return sorted(self._parents)

    def parents(self, name: str) -> set[str]:
        """Direct parents of ``name``."""
        return set(self._parents[name])

    def children(self, name: str) -> set[str]:
        """Direct children of ``name``."""
        return set(self._children[name])

    # ------------------------------------------------------------------
    # reasoning
    # ------------------------------------------------------------------
    def ancestors(self, name: str) -> set[str]:
        """All classes subsuming ``name`` (excluding itself)."""
        seen = set(self._hops_up(name))
        seen.remove(name)
        return seen

    def descendants(self, name: str) -> set[str]:
        """All classes subsumed by ``name`` (excluding itself)."""
        seen: set[str] = set()
        frontier = collections.deque(self._children[name])
        while frontier:
            cls = frontier.popleft()
            if cls not in seen:
                seen.add(cls)
                frontier.extend(self._children[cls])
        return seen

    def subsumes(self, general: str, specific: str) -> bool:
        """True iff ``general`` is ``specific`` or an ancestor of it."""
        if general not in self._parents or specific not in self._parents:
            raise KeyError("unknown class")
        return general in self._hops_up(specific)

    def depth(self, name: str) -> int:
        """Shortest edge distance from the root (root is 0)."""
        if name not in self._parents:
            raise KeyError(f"unknown class {name!r}")
        return self._hops_up(name)[self.root]

    def least_common_subsumers(self, a: str, b: str) -> set[str]:
        """The deepest classes subsuming both ``a`` and ``b``."""
        common = self._hops_up(a).keys() & self._hops_up(b).keys()
        depths = {c: self.depth(c) for c in common}
        max_depth = max(depths.values())
        return {c for c, d in depths.items() if d == max_depth}

    def distance(self, a: str, b: str) -> int:
        """Semantic distance: shortest up-down path through an LCS.

        0 for identical classes; grows with taxonomic separation.  Used
        by the matcher's fuzzy scoring.
        """
        if a == b:
            return 0
        up_a = self._hops_up(a)
        up_b = self._hops_up(b)
        return min(up_a[c] + up_b[c] for c in self.least_common_subsumers(a, b))

    def _hops_up(self, name: str) -> dict[str, int]:
        """Min hops from ``name`` to each of its ancestors (and itself).

        Memoized until the next :meth:`add_class`; callers must not
        mutate the returned map.
        """
        dist = self._up.get(name)
        if dist is None:
            dist = {name: 0}
            frontier = collections.deque([name])
            while frontier:
                cls = frontier.popleft()
                for p in self._parents[cls]:
                    if p not in dist:
                        dist[p] = dist[cls] + 1
                        frontier.append(p)
            self._up[name] = dist
        return dist

    def related(self, a: str, b: str, min_depth: int = 2) -> bool:
        """True iff a and b share a *specific enough* common ancestor.

        Sharing only the root (or a depth-1 hub class like ``Service``)
        is not meaningful siblinghood -- nearly everything would be
        "related".  The default requires a common subsumer at depth >= 2,
        i.e. inside the same service family.
        """
        lcs = self.least_common_subsumers(a, b)
        return any(self.depth(c) >= min_depth for c in lcs)


def build_service_ontology() -> Ontology:
    """The default pervasive-grid service taxonomy.

    Covers the service families the paper names: printers (the motivating
    Jini example), computational solvers (the NSC legacy codes), data/
    sensor services (temperature, toxins, pathogens), and device-facing
    utility services.  Used by examples, tests and the E5 benchmark.
    """
    ont = Ontology()
    ont.add_class("Service")
    # hardware-facing services
    ont.add_class("DeviceService", "Service")
    ont.add_class("PrinterService", "DeviceService")
    ont.add_class("ColorPrinterService", "PrinterService")
    ont.add_class("LaserPrinterService", "PrinterService")
    ont.add_class("DisplayService", "DeviceService")
    ont.add_class("StorageService", "DeviceService")
    # computation
    ont.add_class("ComputeService", "Service")
    ont.add_class("SolverService", "ComputeService")
    ont.add_class("PDESolverService", "SolverService")
    ont.add_class("LinearAlgebraService", "SolverService")
    ont.add_class("DataMiningService", "ComputeService")
    ont.add_class("ClusteringService", "DataMiningService")
    ont.add_class("DecisionTreeService", "DataMiningService")
    ont.add_class("FourierSpectrumService", "DataMiningService")
    ont.add_class("EnsembleCombinerService", "DataMiningService")
    ont.add_class("AggregationService", "ComputeService")
    # data / sensing
    ont.add_class("DataService", "Service")
    ont.add_class("SensorService", "DataService")
    ont.add_class("TemperatureSensorService", "SensorService")
    ont.add_class("ToxinSensorService", "SensorService")
    ont.add_class("PathogenSensorService", "SensorService")
    ont.add_class("DatabaseService", "DataService")
    ont.add_class("HospitalRecordsService", "DatabaseService")
    ont.add_class("WeatherService", "DataService")
    ont.add_class("StreamService", "DataService")
    # data types (inputs/outputs)
    ont.add_class("Data")
    ont.add_class("TemperatureReading", "Data")
    ont.add_class("ToxinReading", "Data")
    ont.add_class("DataStream", "Data")
    ont.add_class("DecisionTree", "Data")
    ont.add_class("FourierSpectrum", "Data")
    ont.add_class("TemperatureDistribution", "Data")
    ont.add_class("Document", "Data")
    return ont
