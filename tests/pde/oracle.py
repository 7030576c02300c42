"""Reference steady solves: slice each mask's free block and ``spsolve`` it.

:class:`~repro.pde.heat.HeatSolver` factors its interior operator once and
takes interior anchors as a low-rank correction, and
:func:`~repro.pde.interpolate.anchor_readings` interpolates the grid
boundary only.  The functions here are the direct forms those replaced:
every solve slices the free rows and columns of ``k * L`` for its own
mask and hands them to ``scipy.sparse.linalg.spsolve``, and the readings
are interpolated onto every grid point before the anchors overwrite
theirs.  They read the solver's grid, conductivity and assembled
operator and nothing else it computes, so tests can assert the fast
paths agree with them to rounding.  :func:`anchor_readings` pins the
readings one at a time through ``RectGrid.nearest_index``, the loop the
production function replaced with one array pass.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from repro.pde.interpolate import idw_interpolate


def solve_steady(solver, boundary_values, source=None, fixed_mask=None):
    """``-k ∇²T = q`` with the points of ``fixed_mask`` held fixed."""
    g = solver.grid
    fixed = g.boundary_mask() if fixed_mask is None else np.asarray(fixed_mask, dtype=bool)
    bvals = np.asarray(boundary_values, dtype=np.float64)
    q = np.zeros(g.shape) if source is None else np.asarray(source, dtype=np.float64)
    lap = solver._scaled_laplacian()
    fixed_flat = fixed.ravel()
    free = ~fixed_flat
    t_fixed = np.zeros(g.n_points)
    t_fixed[fixed_flat] = bvals.ravel()[fixed_flat]
    # move the known values' contributions to the RHS
    rhs = q.ravel() - lap @ t_fixed
    t = t_fixed.copy()
    t[free] = spla.spsolve(lap[free][:, free].tocsc(), rhs[free])
    return t.reshape(g.shape)


def solve_distribution(solver, positions, values):
    """DISTRIBUTION with IDW over the whole grid, then the anchors."""
    g = solver.grid
    bvals = idw_interpolate(positions, values, g.points()).reshape(g.shape)
    fixed = g.boundary_mask()
    for pos, val in zip(positions, values):
        i, j = g.nearest_index(pos)
        fixed[i, j] = True
        bvals[i, j] = val
    return solve_steady(solver, bvals, fixed_mask=fixed)


def anchor_readings(grid, positions, values):
    """Boundary IDW, then each reading pins its nearest cell in turn."""
    fixed = grid.boundary_mask()
    field = np.zeros(grid.shape)
    field[fixed] = idw_interpolate(positions, values, grid.points()[fixed.ravel()])
    for pos, val in zip(positions, values):
        i, j = grid.nearest_index(pos)
        fixed[i, j] = True
        field[i, j] = val
    return field, fixed
