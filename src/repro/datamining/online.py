"""Online, drift-adaptive ensemble mining in the Fourier domain.

The technique the paper cites ([17], Kargupta & Park) is built for
*streams*: models are learned continually on a mobile device and the
ensemble must track concept drift.  :class:`OnlineFourierEnsemble`
maintains a sliding window of member spectra -- each incoming batch fits
a fresh shallow tree, its spectrum joins the window, the oldest falls out
-- and the deployable model is always the truncated average of the
window.  Old concepts therefore age out at the window timescale, and the
wire representation stays a fixed handful of coefficients.
"""

from __future__ import annotations

import collections

import numpy as np

from repro import checks
from repro.datamining.ensemble import average_spectra
from repro.datamining.fourier import FourierFunction, spectrum_of, truncate_spectrum
from repro.datamining.tree import DecisionTree


class OnlineFourierEnsemble:
    """A sliding-window Fourier ensemble over a labelled stream.

    Parameters
    ----------
    d:
        Feature count (spectra are exact; d <= 16).
    window:
        Member spectra retained; the drift-adaptation timescale.
    k_coefficients:
        Dominant components kept in the deployable model.
    max_depth:
        Depth of each member tree.
    """

    def __init__(self, d: int, window: int = 5, k_coefficients: int = 32,
                 max_depth: int = 4) -> None:
        self.d = checks.count("d", d, 1)
        self.window = checks.count("window", window, 1)
        self.k_coefficients = checks.count("k_coefficients", k_coefficients, 1)
        self.max_depth = checks.count("max_depth", max_depth)
        self._spectra: collections.deque[np.ndarray] = collections.deque(maxlen=window)
        self._model: FourierFunction | None = None
        self.batches_seen = 0

    # ------------------------------------------------------------------
    @property
    def members(self) -> int:
        """Member spectra currently in the window."""
        return len(self._spectra)

    def update(self, X: np.ndarray, y: np.ndarray) -> None:
        """Learn one batch: fit a tree, admit its spectrum, refresh model."""
        tree = DecisionTree(max_depth=self.max_depth).fit(X, y)
        self._spectra.append(spectrum_of(tree.predict, self.d))
        avg = average_spectra(list(self._spectra))
        self._model = FourierFunction(truncate_spectrum(avg, self.k_coefficients), self.d)
        self.batches_seen += 1

    def current_model(self) -> FourierFunction:
        """The deployable combined model (RuntimeError before any update)."""
        if self._model is None:
            raise RuntimeError("no batches seen yet")
        return self._model

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict with the current combined model."""
        return self.current_model().predict(X)

    def wire_bits(self) -> float:
        """Size of shipping the current model (truncated spectrum)."""
        return self.current_model().size_bits()
