"""Heat-equation solvers on rectangular grids.

Steady state:  ``-k ∇²T = q`` with Dirichlet boundary values.
Transient:     ``∂T/∂t = α ∇²T + q`` via implicit (backward) Euler.

Both assemble the classic 5-point-stencil sparse operator and solve with
``scipy.sparse.linalg.spsolve`` -- a real computation, so examples and
experiments produce genuine temperature fields, while the *cost* charged
to whichever device runs the solve comes from
:func:`solve_ops_estimate` (sparse direct solves on 5-point systems cost
~O(n^1.5) flops via nested dissection).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.pde.grid import RectGrid


def solve_ops_estimate(n_unknowns: int) -> float:
    """Estimated flop count for one sparse steady-state solve.

    Nested-dissection factorization of a 2-D 5-point system costs
    ``O(n^{3/2})``; the constant (~50) is calibrated to put laptop-class
    solves in the seconds range on handheld-class rates, matching the
    paper's claim that in-network/handheld solves are infeasible while
    grid solves are interactive.
    """
    if n_unknowns < 0:
        raise ValueError("n_unknowns must be non-negative")
    return 50.0 * float(n_unknowns) ** 1.5


class HeatSolver:
    """Heat-equation solves over one :class:`~repro.pde.grid.RectGrid`.

    Parameters
    ----------
    grid:
        The computation grid.
    conductivity:
        Thermal conductivity ``k`` (steady) / diffusivity ``α`` (transient).

    Both are fixed at construction: the scaled operator ``k * L`` is
    assembled on the first solve and reused by every later one.
    """

    def __init__(self, grid: RectGrid, conductivity: float = 1.0) -> None:
        if conductivity <= 0:
            raise ValueError("conductivity must be positive")
        self.grid = grid
        self.conductivity = conductivity
        self._operator: sp.csr_matrix | None = None

    # ------------------------------------------------------------------
    def _laplacian(self) -> sp.csr_matrix:
        """The negative 5-point Laplacian over all grid points (C order).

        Built as the Kronecker sum ``Dxx ⊗ I + I ⊗ Dyy`` with 1-D
        second-difference operators, which handles row boundaries
        correctly by construction (C-order flat index = i*ny + j).
        """
        g = self.grid

        def second_diff(n: int, h: float) -> sp.csr_matrix:
            main = np.full(n, 2.0 / (h * h))
            off = np.full(n - 1, -1.0 / (h * h))
            return sp.diags([off, main, off], [-1, 0, 1], format="csr")

        dxx = second_diff(g.nx, g.dx)
        dyy = second_diff(g.ny, g.dy)
        return (
            sp.kron(dxx, sp.identity(g.ny, format="csr"), format="csr")
            + sp.kron(sp.identity(g.nx, format="csr"), dyy, format="csr")
        )

    def _scaled_laplacian(self) -> sp.csr_matrix:
        """``conductivity * L``, assembled once."""
        if self._operator is None:
            self._operator = self._laplacian() * self.conductivity
        return self._operator

    def solve_steady(
        self,
        boundary_values: np.ndarray,
        source: np.ndarray | None = None,
        fixed_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve ``-k ∇²T = q`` with Dirichlet conditions.

        Parameters
        ----------
        boundary_values:
            ``(nx, ny)`` array; values where ``fixed_mask`` is True are
            held fixed (interior entries elsewhere are ignored).
        source:
            ``(nx, ny)`` heat source ``q`` (default zero).
        fixed_mask:
            Which points are Dirichlet-fixed (default: the grid boundary).

        Returns
        -------
        ``(nx, ny)`` temperature field.
        """
        g = self.grid
        fixed = g.boundary_mask() if fixed_mask is None else np.asarray(fixed_mask, dtype=bool)
        if fixed.shape != g.shape:
            raise ValueError("fixed_mask shape mismatch")
        if not fixed.any():
            raise ValueError("steady solve needs at least one fixed (Dirichlet) point")
        bvals = np.asarray(boundary_values, dtype=np.float64)
        if bvals.shape != g.shape:
            raise ValueError("boundary_values shape mismatch")
        q = np.zeros(g.shape) if source is None else np.asarray(source, dtype=np.float64)
        if q.shape != g.shape:
            raise ValueError("source shape mismatch")

        lap = self._scaled_laplacian()
        n = g.n_points
        fixed_flat = fixed.ravel()
        free = ~fixed_flat
        rhs = q.ravel().copy()
        # move known boundary contributions to the RHS
        t_fixed = np.zeros(n)
        t_fixed[fixed_flat] = bvals.ravel()[fixed_flat]
        rhs = rhs - lap @ t_fixed

        a_ff = lap[free][:, free].tocsc()
        t = t_fixed.copy()
        t[free] = spla.spsolve(a_ff, rhs[free])
        return t.reshape(g.shape)

    def step_transient(
        self,
        temperature: np.ndarray,
        dt: float,
        source: np.ndarray | None = None,
        fixed_mask: np.ndarray | None = None,
        boundary_values: np.ndarray | None = None,
    ) -> np.ndarray:
        """One implicit-Euler step of ``∂T/∂t = α ∇²T + q``.

        Unconditionally stable for any ``dt``.  Fixed points are reset to
        ``boundary_values`` (default: their current values) after the
        step.
        """
        if dt <= 0:
            raise ValueError("dt must be positive")
        g = self.grid
        t0 = np.asarray(temperature, dtype=np.float64)
        if t0.shape != g.shape:
            raise ValueError("temperature shape mismatch")
        q = np.zeros(g.shape) if source is None else np.asarray(source, dtype=np.float64)
        fixed = g.boundary_mask() if fixed_mask is None else np.asarray(fixed_mask, dtype=bool)
        bvals = t0 if boundary_values is None else np.asarray(boundary_values, dtype=np.float64)

        lap = self._scaled_laplacian()
        n = g.n_points
        fixed_flat = fixed.ravel()
        free = ~fixed_flat
        t_next = np.empty(n)
        t_next[fixed_flat] = bvals.ravel()[fixed_flat]
        if free.any():
            # implicit Euler on the free unknowns; Dirichlet data enters
            # through the coupling term on the RHS
            t_bound = np.zeros(n)
            t_bound[fixed_flat] = t_next[fixed_flat]
            system = sp.identity(int(free.sum()), format="csr") + dt * lap[free][:, free]
            rhs = t0.ravel()[free] + dt * (q.ravel()[free] - (lap @ t_bound)[free])
            t_next[free] = spla.spsolve(system.tocsc(), rhs)
        return t_next.reshape(g.shape)

    def ops_estimate(self) -> float:
        """Flop estimate for one steady solve on this grid."""
        interior = int(self.grid.interior_mask().sum())
        return solve_ops_estimate(interior)
