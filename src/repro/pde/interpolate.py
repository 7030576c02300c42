"""Scattering sparse sensor readings onto computation grids.

"grid points populated by data from the sensors" -- sensors are sparse
and irregular; the PDE grid is dense and regular.  We use inverse-distance
weighting (Shepard's method), the standard robust choice for scattered
environmental data, fully vectorized over grid points.
:func:`anchor_readings` turns readings into the Dirichlet data of a
steady solve, which needs IDW values on the grid boundary only.
"""

from __future__ import annotations

import numpy as np

from repro.pde.grid import RectGrid


def idw_interpolate(
    sample_points: np.ndarray,
    sample_values: np.ndarray,
    query_points: np.ndarray,
    power: float = 2.0,
    eps: float = 1e-9,
) -> np.ndarray:
    """Inverse-distance-weighted interpolation.

    Parameters
    ----------
    sample_points:
        ``(m, 2)`` known locations.
    sample_values:
        ``(m,)`` known values.
    query_points:
        ``(q, 2)`` locations to estimate.
    power:
        IDW exponent (2 = classic Shepard).
    eps:
        Distance floor; a query point coinciding with a sample returns
        that sample's value exactly (up to floating point).

    Returns
    -------
    ``(q,)`` interpolated values.
    """
    samples = np.asarray(sample_points, dtype=np.float64)
    values = np.asarray(sample_values, dtype=np.float64)
    queries = np.asarray(query_points, dtype=np.float64)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise ValueError("sample_points must be (m, 2)")
    if len(samples) != len(values):
        raise ValueError("sample_points and sample_values length mismatch")
    if len(samples) == 0:
        raise ValueError("need at least one sample")

    delta = queries[:, None, :] - samples[None, :, :]
    dist = np.hypot(delta[..., 0], delta[..., 1])
    dist = np.maximum(dist, eps)
    weights = dist ** (-power)
    return (weights @ values) / weights.sum(axis=1)


def anchor_readings(
    grid: RectGrid,
    positions: np.ndarray,
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dirichlet data for a steady solve from scattered sensor readings.

    The grid boundary takes the readings' IDW-interpolated values, and each
    reading pins its nearest grid point to its own value (a later reading
    on the same point wins, and a reading may pin a boundary point).
    Returns ``(values, fixed_mask)`` for
    :meth:`~repro.pde.heat.HeatSolver.solve_steady`; entries off the mask
    are zero, because the solve never reads them.
    """
    fixed = grid.boundary_mask()
    field = np.zeros(grid.shape)
    field[fixed] = idw_interpolate(positions, values, grid.points()[fixed.ravel()])
    # every reading's nearest cell in one pass, as RectGrid.nearest_index
    # computes it (np.rint rounds half to even, like round())
    pts = np.asarray(positions, dtype=np.float64)
    if np.isnan(pts).any():
        raise ValueError("reading positions must not be NaN")
    i = np.minimum(np.rint(np.clip(pts[:, 0], 0.0, grid.width) / grid.dx), grid.nx - 1)
    j = np.minimum(np.rint(np.clip(pts[:, 1], 0.0, grid.height) / grid.dy), grid.ny - 1)
    cells = i.astype(np.intp) * grid.ny + j.astype(np.intp)
    # numpy leaves the winner of a repeated fancy-index store unspecified,
    # so pick each cell's last reading first: unique over the reversed
    # order returns each cell's first index there
    cells, last = np.unique(cells[::-1], return_index=True)
    fixed.ravel()[cells] = True
    field.ravel()[cells] = np.asarray(values, dtype=np.float64)[::-1][last]
    return field, fixed
