"""Ready-made executors: real computations behind the service categories.

Providers are only interesting when invoking them *does* something.  This
module binds the default ontology's computational categories to the real
implementations elsewhere in the library, so examples and experiments can
stand up a working service economy in a few lines:

* ``DecisionTreeService``   → :class:`repro.datamining.DecisionTree`
* ``FourierSpectrumService`` → spectra + dominant-component selection
* ``EnsembleCombinerService`` → :class:`repro.datamining.FourierFunction`
* ``PDESolverService``      → :class:`repro.pde.HeatSolver` steady solves
* ``AggregationService``    → :mod:`repro.queries.functions` aggregates

:func:`build_stream_mining_providers` wires the paper's §3 pipeline
(learn → spectra → dominant components → combine) as registered,
advertised provider agents in one call.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.composition.provider import ServiceProviderAgent
from repro.datamining import (
    DecisionTree,
    FourierFunction,
    average_spectra,
    spectrum_of,
    truncate_spectrum,
)
from repro.discovery.description import ServiceDescription
from repro.queries.functions import compute_aggregate


def make_decision_tree_executor(max_depth: int = 4):
    """Executor: labelled batch ``(X, y)`` in, fitted tree out.

    Accepts the batch under any single input key (sources get it as
    ``__initial__``; mid-pipeline as the producing task's name).
    """

    def executor(params: dict, inputs: dict) -> DecisionTree:
        (batch,) = inputs.values()
        X, y = batch
        return DecisionTree(max_depth=int(params.get("max_depth", max_depth))).fit(X, y)

    return executor


def make_spectrum_executor(d: int):
    """Executor for ``FourierSpectrumService``: handles both pipeline roles.

    * one fitted-tree input → that tree's exact spectrum;
    * one-or-more spectrum inputs (or a ``k_coefficients`` param) →
      average and keep the dominant components.
    """

    def executor(params: dict, inputs: dict) -> np.ndarray:
        values = list(inputs.values())
        if all(isinstance(v, np.ndarray) and v.ndim == 1 for v in values):
            avg = average_spectra(values)
            k = int(params.get("k_coefficients", 32))
            return truncate_spectrum(avg, k)
        (tree,) = values
        return spectrum_of(tree.predict, d)

    return executor


def make_combiner_executor(d: int):
    """Executor: truncated spectrum in, executable classifier out."""

    def executor(params: dict, inputs: dict) -> FourierFunction:
        (spectrum,) = inputs.values()
        return FourierFunction(spectrum, d)

    return executor


def make_pde_executor(area_m: float, resolution: int = 24):
    """Executor for ``PDESolverService``: readings in, temperature field out.

    Input payload: ``{"positions": (m, 2) array, "values": (m,) array}``.
    One :class:`~repro.pde.heat.HeatSolver` per resolution lives in the
    closure, so each grid is factored once across calls.
    """
    from repro.pde.grid import RectGrid
    from repro.pde.heat import HeatSolver
    from repro.pde.interpolate import anchor_readings

    solvers: dict[int, HeatSolver] = {}

    def executor(params: dict, inputs: dict) -> np.ndarray:
        (payload,) = inputs.values()
        positions = np.asarray(payload["positions"], dtype=float)
        values = np.asarray(payload["values"], dtype=float)
        res = int(params.get("resolution", resolution))
        solver = solvers.get(res)
        if solver is None:
            solver = solvers[res] = HeatSolver(RectGrid(res, res, area_m, area_m))
        bvals, fixed = anchor_readings(solver.grid, positions, values)
        return solver.solve_steady(bvals, fixed_mask=fixed)

    return executor


def make_aggregation_executor(default_func: str = "AVG"):
    """Executor for ``AggregationService``: value sequence in, scalar out."""

    def executor(params: dict, inputs: dict) -> float:
        (payload,) = inputs.values()
        values = np.asarray(payload, dtype=float)
        return compute_aggregate(str(params.get("func", default_func)), values)

    return executor


def build_stream_mining_providers(
    platform,
    registry,
    sim,
    d: int,
    *,
    n_miners: int = 3,
    k_coefficients: int = 32,
    compute_rate: float = 1e8,
    deputy_factory: typing.Callable[[ServiceProviderAgent], typing.Any] | None = None,
) -> list[ServiceProviderAgent]:
    """Register and advertise the full §3 stream-mining service economy.

    Returns the provider agents, in registration order.  ``deputy_factory``
    (agent → deputy) hosts them behind custom deputies (e.g. wireless).
    """
    specs = [(f"miner-{i}", "DecisionTreeService", make_decision_tree_executor())
             for i in range(n_miners)]
    specs.append(("spectral", "FourierSpectrumService", make_spectrum_executor(d)))
    specs.append(("combiner", "EnsembleCombinerService", make_combiner_executor(d)))

    agents = []
    for name, category, executor in specs:
        desc = ServiceDescription(name=f"svc-{name}", category=category, ops=5e6)
        agent = ServiceProviderAgent(name, desc, sim, compute_rate=compute_rate,
                                     executor=executor)
        deputy = deputy_factory(agent) if deputy_factory is not None else None
        platform.register(agent, deputy)
        registry.advertise(desc)
        agents.append(agent)
    return agents
