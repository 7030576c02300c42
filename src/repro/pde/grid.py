"""Rectangular computation grids."""

from __future__ import annotations

import numpy as np

from repro import checks


class RectGrid:
    """A uniform 2-D rectangular grid over ``[0, width] x [0, height]``.

    Grid values are stored as ``(nx, ny)`` arrays; ``points()`` flattens
    in C order (x-major), matching the sparse-operator layout in
    :mod:`~repro.pde.heat`.

    Parameters
    ----------
    nx, ny:
        Number of grid points along each axis (>= 2 each).
    width, height:
        Physical extent in metres.
    """

    def __init__(self, nx: int, ny: int, width: float, height: float) -> None:
        self.nx = int(checks.count("nx", nx, 2))
        self.ny = int(checks.count("ny", ny, 2))
        self.width = float(checks.positive("width", width))
        self.height = float(checks.positive("height", height))
        self.dx = width / (nx - 1)
        self.dy = height / (ny - 1)

    @property
    def n_points(self) -> int:
        """Total grid points."""
        return self.nx * self.ny

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape ``(nx, ny)``."""
        return (self.nx, self.ny)

    def points(self) -> np.ndarray:
        """``(n_points, 2)`` coordinates, C order (x-major)."""
        xs = np.linspace(0.0, self.width, self.nx)
        ys = np.linspace(0.0, self.height, self.ny)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.stack([gx.ravel(), gy.ravel()], axis=1)

    def index(self, i: int, j: int) -> int:
        """Flat index of grid point ``(i, j)``."""
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(f"({i}, {j}) outside {self.shape}")
        return i * self.ny + j

    def boundary_mask(self) -> np.ndarray:
        """Boolean ``(nx, ny)`` mask of boundary points."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[0, :] = mask[-1, :] = True
        mask[:, 0] = mask[:, -1] = True
        return mask

    def interior_mask(self) -> np.ndarray:
        """Boolean ``(nx, ny)`` mask of interior points."""
        return ~self.boundary_mask()

    def nearest_index(self, point: np.ndarray) -> tuple[int, int]:
        """Grid indices of the point nearest to a physical location."""
        x, y = float(point[0]), float(point[1])
        i = int(round(np.clip(x, 0.0, self.width) / self.dx))
        j = int(round(np.clip(y, 0.0, self.height) / self.dy))
        return min(i, self.nx - 1), min(j, self.ny - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RectGrid({self.nx}x{self.ny}, {self.width}x{self.height} m)"
