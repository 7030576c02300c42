"""PDE solving for complex queries (paper §4).

"To answer this query, a 3D partial differential equation needs to be set
up, grid points populated by data from the sensors and static data about
building material and boundary conditions, and then solved.  It is simply
not feasible to perform the computation for solving such a query inside
the network."

This package provides the solver that the grid (or, futilely, a handheld)
runs for the *Complex* query class:

* :mod:`~repro.pde.grid` -- rectangular computation grids.
* :mod:`~repro.pde.interpolate` -- scattering sparse sensor readings onto
  grid points (inverse-distance weighting), and anchoring them as a steady
  solve's Dirichlet data.
* :mod:`~repro.pde.heat` -- steady-state and transient heat equation via
  sparse 5-point-stencil linear systems (scipy.sparse; one interior LU
  factor per steady solver), plus the operation-count model the
  partitioner's estimators use.
"""

from repro.pde.grid import RectGrid
from repro.pde.interpolate import anchor_readings, idw_interpolate
from repro.pde.heat import HeatSolver, solve_ops_estimate
from repro.pde.grid3d import BoxGrid
from repro.pde.heat3d import HeatSolver3D, solve3d_ops_estimate

__all__ = [
    "RectGrid",
    "anchor_readings",
    "idw_interpolate",
    "HeatSolver",
    "solve_ops_estimate",
    "BoxGrid",
    "HeatSolver3D",
    "solve3d_ops_estimate",
]
