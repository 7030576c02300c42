"""Uniform grid-hash spatial index for radio-neighborhood queries.

At smartdust scale the dense ``(n, n)`` distance pass in
:mod:`repro.network.geometry` is the topology bottleneck: every mobility
tick pays O(n^2) floats and O(n^2) bytes.  A unit-disc neighborhood query
only ever needs the points within ``radius``, so :class:`GridHashIndex`
buckets nodes into square cells of side ``radius``; any disc of that
radius is covered by the 3x3 block of cells around its centre, making a
neighbor query O(density) instead of O(n) and a full recompute under
mobility O(moved) instead of O(n^2).

Exactness: candidates gathered from the 3x3 block are filtered with the
same ``np.hypot`` float computation the dense path uses, so the surviving
neighbor set is *bit-identical* to a row of
:func:`repro.network.geometry.neighbors_within` -- proven by the fuzz
and property tests in ``tests/network/test_spatial_index.py``, which
check :class:`~repro.network.topology.Topology` against the dense oracle
in ``tests/network/oracle.py``.  The cell hash uses
``floor(coord / cell)`` on float64; a point exactly on a cell boundary
lands in the higher cell, and since membership is only ever used to
*over*-approximate the disc (the exact filter runs afterwards), boundary
rounding cannot change results.
"""

from __future__ import annotations

import numpy as np


class GridHashIndex:
    """Spatial hash over ``(n, 2)`` positions with cell size = query radius.

    Parameters
    ----------
    positions:
        Initial ``(n, 2)`` float64 positions (the index keeps its own
        copy of the *cell coordinates*, not the positions; callers pass
        current positions into queries).
    radius:
        Query radius; also the cell side.  One index serves one radius.

    Notes
    -----
    The index stores every node, dead or alive -- liveness is a property
    of the topology, filtered at query time.  Cells are dict entries
    mapping ``(cx, cy)`` to a Python list of node ids; lists stay in
    insertion order, and queries sort the final id array, so results are
    deterministic regardless of update history.
    """

    __slots__ = ("radius", "_cell", "_cells", "_coords", "moves_applied")

    def __init__(self, positions: np.ndarray, radius: float) -> None:
        if not radius > 0:  # NaN fails too
            raise ValueError(f"radius must be positive, got {radius!r}")
        self.radius = float(radius)
        self._cell = float(radius)
        self._cells: dict[tuple[int, int], list[int]] = {}
        self._coords: np.ndarray = np.empty((0, 2), dtype=np.int64)
        #: Incremental single/bulk moves applied since construction
        #: (observability: the work a dense recompute would have re-done).
        self.moves_applied = 0
        self.rebuild(positions)

    # ------------------------------------------------------------------
    # construction / updates
    # ------------------------------------------------------------------
    def _cell_coords(self, positions: np.ndarray) -> np.ndarray:
        return np.floor(positions / self._cell).astype(np.int64)

    def rebuild(self, positions: np.ndarray) -> None:
        """Re-hash every node (used at construction and bulk resets)."""
        coords = self._cell_coords(np.asarray(positions, dtype=np.float64))
        cells: dict[tuple[int, int], list[int]] = {}
        # tolist() converts every coordinate to a Python int in one C
        # pass; calling int() on each np.int64 dominated small-world setup
        for i, key in enumerate(map(tuple, coords.tolist())):
            cells.setdefault(key, []).append(i)
        self._cells = cells
        self._coords = coords

    def move(self, node: int, new_position: np.ndarray) -> None:
        """Re-bucket one node after a position change (O(cell size))."""
        new = np.floor(np.asarray(new_position, dtype=np.float64) / self._cell).astype(np.int64)
        old = self._coords[node]
        if new[0] == old[0] and new[1] == old[1]:
            return
        self._remove_from_cell((int(old[0]), int(old[1])), node)
        self._cells.setdefault((int(new[0]), int(new[1])), []).append(node)
        self._coords[node] = new
        self.moves_applied += 1

    def move_all(self, positions: np.ndarray) -> int:
        """Re-bucket only the nodes whose cell changed; returns how many."""
        coords = self._cell_coords(np.asarray(positions, dtype=np.float64))
        changed = np.flatnonzero((coords != self._coords).any(axis=1))
        for i in changed:
            i = int(i)
            old = self._coords[i]
            self._remove_from_cell((int(old[0]), int(old[1])), i)
            cx, cy = int(coords[i, 0]), int(coords[i, 1])
            self._cells.setdefault((cx, cy), []).append(i)
        self._coords = coords
        self.moves_applied += len(changed)
        return len(changed)

    def _remove_from_cell(self, key: tuple[int, int], node: int) -> None:
        bucket = self._cells[key]
        bucket.remove(node)
        if not bucket:
            del self._cells[key]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def candidates_near(self, node: int) -> np.ndarray:
        """Ids in the 3x3 cell block around ``node`` (self excluded).

        A superset of the true disc neighborhood; callers apply the exact
        distance filter.  Unsorted (callers sort after filtering).
        """
        cx, cy = int(self._coords[node, 0]), int(self._coords[node, 1])
        cells = self._cells
        out: list[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bucket = cells.get((cx + dx, cy + dy))
                if bucket:
                    out.extend(bucket)
        ids = np.asarray(out, dtype=np.intp)
        return ids[ids != node]

    def neighbors_within(self, node: int, positions: np.ndarray) -> np.ndarray:
        """Exact unit-disc neighbors of ``node``: ``dist <= radius``, no self.

        Sorted ascending; bit-identical to the corresponding row of the
        dense :func:`~repro.network.geometry.neighbors_within` matrix.
        """
        ids = self.candidates_near(node)
        if not len(ids):
            return ids
        delta = positions[ids] - positions[node]
        dist = np.hypot(delta[:, 0], delta[:, 1])
        keep = ids[dist <= self.radius]
        keep.sort()
        return keep

    @property
    def n_cells(self) -> int:
        """Number of occupied cells (diagnostics)."""
        return len(self._cells)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GridHashIndex(n={len(self._coords)}, cell={self._cell:.3g} m, "
                f"occupied={self.n_cells})")
