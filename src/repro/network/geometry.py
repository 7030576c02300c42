"""Vectorized geometry helpers.

All positions in the substrate are ``(n, 2)`` float64 arrays in metres.
Distance computations are the inner loop of topology recomputation under
mobility, so they are fully vectorized (HPC guide: no Python loops on the
hot path, broadcast instead).

Scale guard: the dense ``(n, n)`` forms materialize O(n^2) floats -- at
100k nodes that is an 80 GB matrix plus temporaries.  The dense helpers
therefore refuse populations above an explicit threshold with a pointer
to the :class:`~repro.network.spatial.GridHashIndex` that
:class:`~repro.network.topology.Topology` answers every neighbor query
from; the block-wise evaluation below keeps the *temporaries* flat even
for the sizes that are allowed.
"""

from __future__ import annotations

import numpy as np

#: Largest population for which a dense (n, n) float64 distance matrix may
#: be materialized (~1.2 GB at the limit).  Above this, use the spatial
#: index (``Topology`` / ``repro.network.spatial``).
PAIRWISE_MAX_N = 12_000

#: Largest population for a dense (n, n) boolean adjacency (~1 GB at the
#: limit; the matrix is bytes, not float64, so the cap is higher).
ADJACENCY_MAX_N = 32_768

#: Target element budget per block of the block-wise distance evaluation
#: (keeps peak temporary memory ~256 MB regardless of n).
_BLOCK_ELEMENTS = 16 * 2**20


class PopulationTooLarge(ValueError):
    """A dense O(n^2) geometry helper was asked for an unsafe population."""

    def __init__(self, what: str, n: int, limit: int) -> None:
        super().__init__(
            f"{what} would materialize an O(n^2) array for n={n} (> {limit}); "
            f"at this scale use the grid-hash spatial index instead "
            f"(repro.network.spatial.GridHashIndex, or Topology, whose "
            f"neighbor queries run on it)"
        )
        self.n = n
        self.limit = limit


def as_positions(positions: np.ndarray | list) -> np.ndarray:
    """Coerce to a float64 ``(n, 2)`` array of finite coordinates.

    Raises
    ------
    ValueError
        On any other shape, or on a NaN or infinite coordinate.
    """
    arr = np.asarray(positions, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"positions must have shape (n, 2), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("positions must be finite (no NaN or inf coordinates)")
    return arr


def as_point(position: np.ndarray | list) -> np.ndarray:
    """Coerce one position to a finite float64 ``(x, y)`` pair.

    Raises
    ------
    ValueError
        When ``position`` is not two finite numbers (a scalar is not
        broadcast to both axes).
    """
    arr = np.asarray(position, dtype=np.float64)
    if arr.shape != (2,) or not np.isfinite(arr).all():
        raise ValueError(f"position must be a finite (x, y) pair, got {position!r}")
    return arr


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two 2-D points."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def pairwise_distances(positions: np.ndarray, *, max_n: int = PAIRWISE_MAX_N) -> np.ndarray:
    """Dense ``(n, n)`` Euclidean distance matrix.

    The direct ``hypot(dx, dy)`` form is used rather than the Gram-matrix
    identity because the latter suffers catastrophic cancellation near the
    diagonal (errors ~1e-7 m), which breaks exact-adjacency tests.  Rows
    are evaluated in blocks so peak temporary memory stays flat instead of
    growing as the ``(n, n, 2)`` broadcast would.

    Raises
    ------
    PopulationTooLarge
        When ``n > max_n`` (default :data:`PAIRWISE_MAX_N`): the result
        alone would be gigabytes; large-n callers belong on the spatial
        index, which never materializes O(n^2) state.
    """
    pos = as_positions(positions)
    n = len(pos)
    if n > max_n:
        raise PopulationTooLarge("pairwise_distances", n, max_n)
    out = np.empty((n, n), dtype=np.float64)
    for start, stop in _row_blocks(n):
        delta = pos[start:stop, None, :] - pos[None, :, :]
        np.hypot(delta[..., 0], delta[..., 1], out=out[start:stop])
    return out


def distances_from(positions: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Distances from every position to one ``point`` (vectorized)."""
    pos = as_positions(positions)
    delta = pos - np.asarray(point, dtype=np.float64)[None, :]
    return np.hypot(delta[:, 0], delta[:, 1])


def neighbors_within(positions: np.ndarray, radius: float,
                     *, max_n: int = ADJACENCY_MAX_N) -> np.ndarray:
    """Boolean ``(n, n)`` adjacency under the unit-disc model.

    ``adj[i, j]`` is True iff ``dist(i, j) <= radius`` and ``i != j`` (no
    self-loops).  Row blocks keep float64 temporaries flat; every element
    goes through the same ``np.hypot`` as :func:`pairwise_distances`, so
    results are bit-identical to thresholding that matrix.

    Raises
    ------
    PopulationTooLarge
        When ``n > max_n`` (default :data:`ADJACENCY_MAX_N`).
    """
    pos = as_positions(positions)
    n = len(pos)
    if n > max_n:
        raise PopulationTooLarge("neighbors_within", n, max_n)
    adj = np.empty((n, n), dtype=bool)
    for start, stop in _row_blocks(n):
        delta = pos[start:stop, None, :] - pos[None, :, :]
        adj[start:stop] = np.hypot(delta[..., 0], delta[..., 1]) <= radius
    np.fill_diagonal(adj, False)
    return adj


def _row_blocks(n: int):
    """Yield ``(start, stop)`` row ranges sized to the temporary budget."""
    if n == 0:
        return
    rows = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, n, rows):
        yield start, min(start + rows, n)
