"""Random service populations for discovery/composition experiments.

Builds a mixed population of services over the default ontology with
realistic attributes (queue lengths, costs, positions, color support),
plus the syntactic metadata (interfaces, class UUIDs, SLP types) the
baseline protocols need -- one population, four protocols, measurable
expressiveness gap (E5).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import checks
from repro.discovery.description import ServiceDescription

#: (category, weight, attribute generator name) rows for the population.
_CATEGORY_MIX = (
    ("PrinterService", 0.15),
    ("ColorPrinterService", 0.1),
    ("LaserPrinterService", 0.1),
    ("PDESolverService", 0.08),
    ("LinearAlgebraService", 0.07),
    ("DecisionTreeService", 0.12),
    ("FourierSpectrumService", 0.1),
    ("EnsembleCombinerService", 0.08),
    ("TemperatureSensorService", 0.1),
    ("ToxinSensorService", 0.05),
    ("StorageService", 0.05),
)

#: Shared SDP class UUIDs per category (what a real SDP deployment has).
_CLASS_UUIDS = {cat: f"uuid-{cat.lower()}" for cat, _ in _CATEGORY_MIX}


@dataclasses.dataclass
class GeneratedService:
    """A generated description plus metadata experiments need."""

    description: ServiceDescription
    category: str


class ServicePopulation:
    """A reproducible random population of service descriptions.

    Parameters
    ----------
    rng:
        Random source.
    area_m:
        Positions are drawn in this square (for ``distance_m``
        preferences).
    host_nodes:
        Optional pool of topology node ids services are hosted on (drawn
        with replacement); None leaves services unhosted (wired side).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        area_m: float = 100.0,
        host_nodes: list[int] | None = None,
    ) -> None:
        self.rng = rng
        self.area_m = checks.positive("area_m", area_m)
        self.host_nodes = host_nodes
        self._counter = 0

    def _category(self) -> str:
        cats = [c for c, _ in _CATEGORY_MIX]
        weights = np.array([w for _, w in _CATEGORY_MIX])
        return cats[int(self.rng.choice(len(cats), p=weights / weights.sum()))]

    def generate_one(self, category: str | None = None) -> GeneratedService:
        """One random service (optionally of a fixed category)."""
        cat = category or self._category()
        self._counter += 1
        name = f"{cat.lower()}-{self._counter}"
        pos = self.rng.uniform(0, self.area_m, size=2)
        attrs = {
            "queue_length": int(self.rng.integers(0, 10)),
            "cost_per_use": float(self.rng.uniform(0.01, 1.0)),
            "x": float(pos[0]),
            "y": float(pos[1]),
            "class_uuid": _CLASS_UUIDS[cat],
            "slp_type": cat,
        }
        if "Printer" in cat:
            attrs["color"] = cat == "ColorPrinterService" or bool(self.rng.random() < 0.2)
            attrs["cost_per_page"] = float(self.rng.uniform(0.01, 0.5))
            attrs["pages_per_minute"] = float(self.rng.uniform(4, 40))
        host = None
        if self.host_nodes:
            host = int(self.host_nodes[int(self.rng.integers(len(self.host_nodes)))])
        desc = ServiceDescription(
            name=name,
            category=cat,
            attributes=attrs,
            host_node=host,
            interfaces=(cat,),
            cost=attrs["cost_per_use"],
            ops=float(self.rng.uniform(1e5, 1e7)),
        )
        return GeneratedService(description=desc, category=cat)

    def generate(self, n: int) -> list[GeneratedService]:
        """``n`` random services."""
        if n < 1:
            raise ValueError("n must be positive")
        return [self.generate_one() for _ in range(n)]

    @staticmethod
    def class_uuid(category: str) -> str:
        """The SDP class UUID a client would have to know a priori."""
        return _CLASS_UUIDS[category]
