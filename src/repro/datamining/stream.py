"""Synthetic labelled data streams.

Streams deliver ``(X, y)`` batches of binary feature vectors labelled by
a hidden boolean concept plus label noise; the concept can drift
mid-stream (the non-stationarity that motivates online ensembles).
"""

from __future__ import annotations

import numpy as np

from repro import checks


class LabeledStream:
    """A stream of labelled binary examples.

    The hidden concept is a random ``k``-term DNF over ``d`` boolean
    features -- learnable by shallow decision trees yet non-trivial.

    Parameters
    ----------
    d:
        Number of binary features (keep <= 16 so spectra are exact).
    rng:
        Random source.
    noise:
        Probability each label is flipped.
    n_terms / term_size:
        DNF shape of the hidden concept.
    drift_at:
        Example index after which the concept is re-drawn (None = no
        drift).
    """

    def __init__(
        self,
        d: int,
        rng: np.random.Generator,
        noise: float = 0.05,
        n_terms: int = 3,
        term_size: int = 3,
        drift_at: int | None = None,
    ) -> None:
        if checks.count("term_size", term_size) > checks.count("d", d, 1, 20):
            raise ValueError("term_size cannot exceed d")
        self.d = d
        self.rng = rng
        self.noise = checks.fraction("noise", noise, high=0.5, open_high=True)
        self.n_terms = checks.count("n_terms", n_terms)
        self.term_size = term_size
        self.drift_at = None if drift_at is None else checks.count("drift_at", drift_at)
        self.emitted = 0
        self._drifted = False
        self._concept = self._draw_concept()

    def _draw_concept(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Terms as (feature index array, required value array)."""
        terms = []
        for _ in range(self.n_terms):
            feats = self.rng.choice(self.d, size=self.term_size, replace=False)
            vals = self.rng.integers(0, 2, size=self.term_size)
            terms.append((feats, vals))
        return terms

    def true_label(self, X: np.ndarray) -> np.ndarray:
        """Noise-free concept labels for a batch (vectorized DNF)."""
        X = np.asarray(X)
        out = np.zeros(len(X), dtype=bool)
        for feats, vals in self._concept:
            out |= (X[:, feats] == vals[None, :]).all(axis=1)
        return out.astype(np.uint8)

    def batch(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Next ``n`` labelled examples ``(X, y)``."""
        if n < 1:
            raise ValueError("n must be positive")
        if self.drift_at is not None and not self._drifted and self.emitted >= self.drift_at:
            self._concept = self._draw_concept()
            self._drifted = True
        X = self.rng.integers(0, 2, size=(n, self.d), dtype=np.uint8)
        y = self.true_label(X)
        if self.noise:
            flips = self.rng.random(n) < self.noise
            y = y ^ flips.astype(np.uint8)
        self.emitted += n
        return X, y


def partition_stream(
    X: np.ndarray, y: np.ndarray, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split one batch into ``k`` disjoint contiguous partitions.

    Models the paper's setting where stream segments are mined on
    different (mobile) devices; partitions differ in content, which is
    why naive model averaging underperforms and spectrum aggregation is
    interesting.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if len(X) < k:
        raise ValueError("fewer examples than partitions")
    xs = np.array_split(np.asarray(X), k)
    ys = np.array_split(np.asarray(y), k)
    return list(zip(xs, ys))
