"""3-D rectangular grids.

The paper's complex query is literally three-dimensional: "a 3D partial
differential equation needs to be set up, grid points populated by data
from the sensors and static data about building material and boundary
conditions, and then solved".  This module extends the 2-D machinery to
a box grid; the 7-point-stencil solver lives in
:mod:`~repro.pde.heat3d`.
"""

from __future__ import annotations

import numpy as np

from repro import checks


class BoxGrid:
    """A uniform grid over ``[0, w] x [0, d] x [0, h]``.

    Values are ``(nx, ny, nz)`` arrays flattened in C order
    (``index = (i * ny + j) * nz + k``).
    """

    def __init__(self, nx: int, ny: int, nz: int,
                 width: float, depth: float, height: float) -> None:
        self.nx = int(checks.count("nx", nx, 2))
        self.ny = int(checks.count("ny", ny, 2))
        self.nz = int(checks.count("nz", nz, 2))
        self.width = float(checks.positive("width", width))
        self.depth = float(checks.positive("depth", depth))
        self.height = float(checks.positive("height", height))
        self.dx = width / (nx - 1)
        self.dy = depth / (ny - 1)
        self.dz = height / (nz - 1)

    @property
    def n_points(self) -> int:
        """Total grid points."""
        return self.nx * self.ny * self.nz

    @property
    def shape(self) -> tuple[int, int, int]:
        """Array shape ``(nx, ny, nz)``."""
        return (self.nx, self.ny, self.nz)

    def points(self) -> np.ndarray:
        """``(n_points, 3)`` coordinates, C order."""
        xs = np.linspace(0.0, self.width, self.nx)
        ys = np.linspace(0.0, self.depth, self.ny)
        zs = np.linspace(0.0, self.height, self.nz)
        gx, gy, gz = np.meshgrid(xs, ys, zs, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    def index(self, i: int, j: int, k: int) -> int:
        """Flat index of grid point ``(i, j, k)``."""
        if not (0 <= i < self.nx and 0 <= j < self.ny and 0 <= k < self.nz):
            raise IndexError(f"({i}, {j}, {k}) outside {self.shape}")
        return (i * self.ny + j) * self.nz + k

    def boundary_mask(self) -> np.ndarray:
        """Boolean ``(nx, ny, nz)`` mask of the box faces."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[0, :, :] = mask[-1, :, :] = True
        mask[:, 0, :] = mask[:, -1, :] = True
        mask[:, :, 0] = mask[:, :, -1] = True
        return mask

    def interior_mask(self) -> np.ndarray:
        """Boolean mask of interior points."""
        return ~self.boundary_mask()

    def nearest_index(self, point: np.ndarray) -> tuple[int, int, int]:
        """Grid indices nearest to a physical location."""
        x = float(np.clip(point[0], 0.0, self.width))
        y = float(np.clip(point[1], 0.0, self.depth))
        z = float(np.clip(point[2], 0.0, self.height))
        return (
            min(int(round(x / self.dx)), self.nx - 1),
            min(int(round(y / self.dy)), self.ny - 1),
            min(int(round(z / self.dz)), self.nz - 1),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoxGrid({self.nx}x{self.ny}x{self.nz})"
