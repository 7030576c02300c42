"""Greedy information-gain decision trees over binary features.

From-scratch (no sklearn), vectorized prediction, compact enough to run
"on a PocketPC" in spirit: the fit cost scales as O(n * d * depth).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import checks


@dataclasses.dataclass
class _Node:
    """Internal tree node; ``feature < 0`` marks a leaf carrying ``label``."""

    feature: int = -1
    label: int = 0
    left: "_Node | None" = None  # feature == 0 branch
    right: "_Node | None" = None  # feature == 1 branch


def _entropy(y: np.ndarray) -> float:
    if len(y) == 0:
        return 0.0
    p = float(np.mean(y))
    if p in (0.0, 1.0):
        return 0.0
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


class DecisionTree:
    """A binary-feature, binary-label decision tree.

    Parameters
    ----------
    max_depth:
        Depth cap (root at depth 0); shallow trees keep the Fourier
        spectrum sparse, which is the point of Kargupta's technique.
    min_samples:
        Do not split nodes with fewer examples.
    """

    def __init__(self, max_depth: int = 4, min_samples: int = 4) -> None:
        self.max_depth = checks.count("max_depth", max_depth)
        self.min_samples = checks.count("min_samples", min_samples, 1)
        self._root: _Node | None = None
        self.d: int | None = None
        self.n_nodes = 0

    # ------------------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        """Grow the tree on a labelled batch; returns self."""
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if len(X) != len(y) or len(X) == 0:
            raise ValueError("X and y must be non-empty and aligned")
        self.d = X.shape[1]
        self.n_nodes = 0
        self._root = self._grow(X, y, depth=0)
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        self.n_nodes += 1
        majority = int(np.mean(y) >= 0.5)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples
            or len(np.unique(y)) == 1
        ):
            return _Node(label=majority)

        # choose the best-gain feature; zero-gain splits are still taken
        # when the node is impure (XOR-style concepts have zero marginal
        # gain at the root yet are solvable one level down)
        base = _entropy(y)
        best_gain, best_feat = -1.0, -1
        for f in range(X.shape[1]):
            mask = X[:, f] == 1
            n1 = int(mask.sum())
            if n1 == 0 or n1 == len(y):
                continue
            gain = base - (
                n1 / len(y) * _entropy(y[mask])
                + (len(y) - n1) / len(y) * _entropy(y[~mask])
            )
            if gain > best_gain + 1e-12:
                best_gain, best_feat = gain, f
        if best_feat < 0:
            return _Node(label=majority)

        mask = X[:, best_feat] == 1
        return _Node(
            feature=best_feat,
            label=majority,
            left=self._grow(X[~mask], y[~mask], depth + 1),
            right=self._grow(X[mask], y[mask], depth + 1),
        )

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels in {0, 1} for a batch (vectorized level walk)."""
        if self._root is None:
            raise RuntimeError("tree not fitted")
        X = np.asarray(X, dtype=np.uint8)
        out = np.empty(len(X), dtype=np.uint8)
        # iterative partition walk: cheap for shallow trees
        stack = [(self._root, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if node.feature < 0:
                out[idx] = node.label
                continue
            mask = X[idx, node.feature] == 1
            stack.append((node.right, idx[mask]))
            stack.append((node.left, idx[~mask]))
        return out

    def depth(self) -> int:
        """Actual grown depth."""

        def walk(node: _Node | None) -> int:
            if node is None or node.feature < 0:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        if self._root is None:
            raise RuntimeError("tree not fitted")
        return walk(self._root)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecisionTree(nodes={self.n_nodes}, max_depth={self.max_depth})"
