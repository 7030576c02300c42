"""3-D steady heat solves on box grids (7-point stencil).

Built by the same Kronecker-sum construction as the 2-D solver:
``L = Dxx ⊗ I ⊗ I + I ⊗ Dyy ⊗ I + I ⊗ I ⊗ Dzz``.  Sparse direct solves
of 3-D problems cost ~O(n^2) flops (nested dissection), which is the op
model :func:`solve3d_ops_estimate` charges -- and the reason the paper's
distribution query belongs on the grid.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import checks
from repro.pde.grid3d import BoxGrid


def solve3d_ops_estimate(n_unknowns: int) -> float:
    """Estimated flops for a 3-D sparse direct solve (O(n^2))."""
    if n_unknowns < 0:
        raise ValueError("n_unknowns must be non-negative")
    return 50.0 * float(n_unknowns) ** 2


def _second_diff(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, 2.0 / (h * h))
    off = np.full(n - 1, -1.0 / (h * h))
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


class HeatSolver3D:
    """Steady 3-D heat solves: ``-k ∇²T = q`` with Dirichlet data."""

    def __init__(self, grid: BoxGrid, conductivity: float = 1.0) -> None:
        self.grid = grid
        self.conductivity = checks.positive("conductivity", conductivity)

    def _laplacian(self) -> sp.csr_matrix:
        g = self.grid
        ix = sp.identity(g.nx, format="csr")
        iy = sp.identity(g.ny, format="csr")
        iz = sp.identity(g.nz, format="csr")
        dxx = _second_diff(g.nx, g.dx)
        dyy = _second_diff(g.ny, g.dy)
        dzz = _second_diff(g.nz, g.dz)
        return (
            sp.kron(sp.kron(dxx, iy), iz, format="csr")
            + sp.kron(sp.kron(ix, dyy), iz, format="csr")
            + sp.kron(sp.kron(ix, iy), dzz, format="csr")
        )

    def solve_steady(
        self,
        boundary_values: np.ndarray,
        source: np.ndarray | None = None,
        fixed_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve with values fixed where ``fixed_mask`` is True.

        Mirrors the 2-D API; defaults fix the box faces.
        """
        g = self.grid
        fixed = g.boundary_mask() if fixed_mask is None else np.asarray(fixed_mask, dtype=bool)
        if fixed.shape != g.shape:
            raise ValueError("fixed_mask shape mismatch")
        if not fixed.any():
            raise ValueError("steady solve needs at least one fixed point")
        bvals = np.asarray(boundary_values, dtype=np.float64)
        if bvals.shape != g.shape:
            raise ValueError("boundary_values shape mismatch")
        q = np.zeros(g.shape) if source is None else np.asarray(source, dtype=np.float64)
        if q.shape != g.shape:
            raise ValueError("source shape mismatch")

        lap = self._laplacian() * self.conductivity
        fixed_flat = fixed.ravel()
        free = ~fixed_flat
        t_fixed = np.zeros(g.n_points)
        t_fixed[fixed_flat] = bvals.ravel()[fixed_flat]
        rhs = q.ravel() - lap @ t_fixed
        t = t_fixed.copy()
        if free.any():
            a_ff = lap[free][:, free].tocsc()
            t[free] = spla.spsolve(a_ff, rhs[free])
        return t.reshape(g.shape)

    def ops_estimate(self) -> float:
        """Charged flops for one steady solve on this grid."""
        return solve3d_ops_estimate(int(self.grid.interior_mask().sum()))
