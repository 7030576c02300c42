"""Walsh/Fourier spectra of boolean functions.

A boolean function f: {0,1}^d -> {-1,+1} decomposes over the parity
basis: ``f(x) = sum_S w_S * chi_S(x)`` with ``chi_S(x) = (-1)^{x . S}``.
Decision trees of depth k have spectra concentrated on |S| <= k
(Kargupta & Park's key observation), so a few dominant coefficients
capture the tree -- those coefficients are what the mobile devices ship
instead of raw data or whole models.

The transform is the fast Walsh-Hadamard transform, O(n log n) in the
table size n = 2^d, vectorized with numpy.
"""

from __future__ import annotations

import typing

import numpy as np

from repro import checks

#: Largest d for which exact spectra are computed (2^16 table entries).
MAX_EXACT_D = 16


def all_inputs(d: int) -> np.ndarray:
    """The full domain {0,1}^d as a ``(2^d, d)`` uint8 array.

    Row ``i`` is the binary expansion of ``i`` with feature 0 as the most
    significant bit, matching :func:`walsh_hadamard`'s index convention.
    """
    if not 1 <= d <= MAX_EXACT_D:
        raise ValueError(f"d must be in [1, {MAX_EXACT_D}]")
    idx = np.arange(2**d, dtype=np.uint32)
    bits = (idx[:, None] >> np.arange(d - 1, -1, -1)[None, :]) & 1
    return bits.astype(np.uint8)


def walsh_hadamard(values: np.ndarray) -> np.ndarray:
    """Normalized fast Walsh-Hadamard transform.

    ``values`` is the ±1 truth table of length 2^d (index convention of
    :func:`all_inputs`).  Returns the coefficient vector ``w`` with
    ``w[S] = E_x[f(x) * chi_S(x)]``; the transform is an involution up to
    the 1/n normalization, so ``walsh_hadamard(walsh_hadamard(v) * n) == v``.
    """
    v = np.asarray(values, dtype=np.float64).copy()
    n = len(v)
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a positive power of two")
    h = 1
    while h < n:
        v = v.reshape(-1, 2, h)
        top = v[:, 0, :] + v[:, 1, :]
        bot = v[:, 0, :] - v[:, 1, :]
        v = np.stack([top, bot], axis=1).reshape(-1)
        h *= 2
    return v / n


def spectrum_of(predict: typing.Callable[[np.ndarray], np.ndarray], d: int) -> np.ndarray:
    """Exact spectrum of a {0,1}-valued predictor over {0,1}^d.

    The predictor's outputs are mapped 0 -> +1, 1 -> -1 (the standard
    boolean-analysis sign convention).
    """
    X = all_inputs(d)
    table = 1.0 - 2.0 * np.asarray(predict(X), dtype=np.float64)
    return walsh_hadamard(table)


def truncate_spectrum(spectrum: np.ndarray, k: int) -> np.ndarray:
    """Keep the ``k`` largest-magnitude coefficients, zeroing the rest.

    This is the "choosing the dominant components" step; ties broken by
    index for determinism.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    w = np.asarray(spectrum, dtype=np.float64)
    if k >= len(w):
        return w.copy()
    order = np.lexsort((np.arange(len(w)), -np.abs(w)))
    out = np.zeros_like(w)
    keep = order[:k]
    out[keep] = w[keep]
    return out


class FourierFunction:
    """A classifier defined by (possibly truncated) Fourier coefficients.

    Evaluation reconstructs the ±1 table by inverse WHT once, then
    predicts by table lookup -- exact and fast for d <= 16.
    """

    def __init__(self, spectrum: np.ndarray, d: int) -> None:
        w = np.asarray(spectrum, dtype=np.float64)
        if len(w) != 2 ** checks.count("d", d):
            raise ValueError("spectrum length must be 2^d")
        self.d = d
        self.spectrum = w
        # inverse transform: the WHT is an involution up to the 1/n
        # normalization, so applying it again and scaling by n recovers
        # the +-1 table values
        self._table_sign = walsh_hadamard(w) * len(w)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels in {0, 1}; sign threshold at 0 (ties -> label 0)."""
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise ValueError(f"X must be (n, {self.d})")
        weights = 1 << np.arange(self.d - 1, -1, -1, dtype=np.uint32)
        idx = (X.astype(np.uint32) @ weights).astype(np.intp)
        return (self._table_sign[idx] < 0.0).astype(np.uint8)

    def nonzero_coefficients(self) -> int:
        """Number of retained (nonzero) coefficients."""
        return int(np.count_nonzero(self.spectrum))

    def size_bits(self, bits_per_coeff: float = 64.0) -> float:
        """Wire size of the truncated spectrum (index + value per coeff)."""
        return self.nonzero_coefficients() * bits_per_coeff
