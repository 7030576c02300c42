"""From-scratch learners for the Decision Maker.

The paper prescribes "standard machine learning techniques" trained on
simulation data; we implement the two classic choices for small tabular
regression -- k-nearest-neighbours and a CART regression tree -- in plain
numpy (no sklearn dependency), with incremental ``update`` APIs suited to
the adaptive feedback loop.
"""

from __future__ import annotations

import numpy as np

from repro import checks


class KNNRegressor:
    """Online k-nearest-neighbours regression.

    Features are standardized per dimension with running statistics, so
    wildly different scales (node counts vs joules) do not distort the
    metric.

    Parameters
    ----------
    k:
        Neighbours averaged per prediction.
    max_points:
        Sliding-window memory bound (oldest samples evicted) -- keeps
        predictions adaptive under drift and bounds prediction cost.
    """

    def __init__(self, k: int = 5, max_points: int = 512) -> None:
        self.k = checks.count("k", k, 1)
        self.max_points = checks.count("max_points", max_points, 1)
        self._X: list[np.ndarray] = []
        self._y: list[float] = []

    def __len__(self) -> int:
        return len(self._y)

    def update(self, x: np.ndarray, y: float) -> None:
        """Add one labelled sample."""
        self._X.append(np.asarray(x, dtype=np.float64))
        self._y.append(float(y))
        if len(self._y) > self.max_points:
            self._X.pop(0)
            self._y.pop(0)

    def predict(self, x: np.ndarray) -> float:
        """Mean label of the k nearest stored samples.

        Raises ``RuntimeError`` with no data (callers fall back to
        estimates until the learner warms up).
        """
        if not self._y:
            raise RuntimeError("KNNRegressor has no data")
        X = np.vstack(self._X)
        y = np.asarray(self._y)
        mu = X.mean(axis=0)
        sigma = X.std(axis=0)
        sigma[sigma == 0.0] = 1.0
        xn = (np.asarray(x, dtype=np.float64) - mu) / sigma
        Xn = (X - mu) / sigma
        d = np.linalg.norm(Xn - xn[None, :], axis=1)
        k = min(self.k, len(y))
        nearest = np.argpartition(d, k - 1)[:k]
        return float(y[nearest].mean())


class RegressionTree:
    """A CART regression tree with periodic refits.

    Stores all samples (windowed) and rebuilds the tree every
    ``refit_every`` updates -- the batch analogue of the paper's
    "incorporated into the learning technique".

    Parameters
    ----------
    max_depth / min_samples:
        Tree growth limits.
    refit_every:
        Updates between rebuilds.
    max_points:
        Sliding-window memory bound.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples: int = 8,
        refit_every: int = 16,
        max_points: int = 1024,
    ) -> None:
        self.max_depth = checks.count("max_depth", max_depth, 1)
        self.min_samples = checks.count("min_samples", min_samples, 2)
        self.refit_every = checks.count("refit_every", refit_every, 1)
        self.max_points = checks.count("max_points", max_points, 1)
        self._X: list[np.ndarray] = []
        self._y: list[float] = []
        self._since_fit = 0
        self._tree: dict | None = None

    def __len__(self) -> int:
        return len(self._y)

    def update(self, x: np.ndarray, y: float) -> None:
        """Add one labelled sample; refit when due."""
        self._X.append(np.asarray(x, dtype=np.float64))
        self._y.append(float(y))
        if len(self._y) > self.max_points:
            self._X.pop(0)
            self._y.pop(0)
        self._since_fit += 1
        if self._tree is None or self._since_fit >= self.refit_every:
            self._fit()

    def _fit(self) -> None:
        X = np.vstack(self._X)
        y = np.asarray(self._y)
        self._tree = self._grow(X, y, 0)
        self._since_fit = 0

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> dict:
        node = {"value": float(y.mean())}
        if depth >= self.max_depth or len(y) < self.min_samples or np.ptp(y) == 0.0:
            return node
        best = None
        base_sse = float(((y - y.mean()) ** 2).sum())
        for f in range(X.shape[1]):
            xs = X[:, f]
            order = np.argsort(xs, kind="stable")
            xs_sorted = xs[order]
            # candidate thresholds: midpoints between distinct values
            distinct = np.flatnonzero(np.diff(xs_sorted) > 0)
            if len(distinct) == 0:
                continue
            # subsample thresholds for speed on large nodes
            for idx in distinct[:: max(1, len(distinct) // 16)]:
                thr = 0.5 * (xs_sorted[idx] + xs_sorted[idx + 1])
                left = xs <= thr
                yl, yr = y[left], y[~left]
                if len(yl) == 0 or len(yr) == 0:
                    continue
                sse = float(((yl - yl.mean()) ** 2).sum() + ((yr - yr.mean()) ** 2).sum())
                if best is None or sse < best[0]:
                    best = (sse, f, thr)
        if best is None or best[0] >= base_sse - 1e-12:
            return node
        _, f, thr = best
        left = X[:, f] <= thr
        node.update(
            feature=f,
            threshold=thr,
            left=self._grow(X[left], y[left], depth + 1),
            right=self._grow(X[~left], y[~left], depth + 1),
        )
        return node

    def predict(self, x: np.ndarray) -> float:
        """Tree lookup; RuntimeError before the first update."""
        if self._tree is None:
            raise RuntimeError("RegressionTree has no data")
        x = np.asarray(x, dtype=np.float64)
        node = self._tree
        while "feature" in node:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return node["value"]
