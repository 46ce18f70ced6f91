"""Step-function thresholding and packed-bit binarization of feature matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinarizationModel",
    "BinaryMatrix",
    "fit_threshold",
    "fit_binarization",
    "binarize",
]


@dataclass
class BinarizationModel:
    """Per-feature step thresholds; degenerate features never fire."""

    thresholds: np.ndarray  # (d,)
    degenerate: np.ndarray  # (d,) bool

    def to_text(self, feature_names: list[str]) -> str:
        lines = []
        for name, tau, deg in zip(feature_names, self.thresholds, self.degenerate):
            lines.append(f"{name}\t{'DEGENERATE' if deg else repr(float(tau))}")
        return "\n".join(lines) + "\n"


@dataclass
class BinaryMatrix:
    """n x d boolean matrix, packed 64-bit little-endian words per column.

    bits has shape (d, W) with W = ceil(n / 64); padding bits beyond n are 0.
    """

    bits: np.ndarray  # (d, W) uint64
    n: int
    d: int


def pack_column(bools: np.ndarray) -> np.ndarray:
    """Pack a boolean vector into little-endian uint64 words, zero-padded."""
    bools = np.asarray(bools, dtype=bool)
    n = bools.shape[0]
    W = (n + 63) // 64
    padded = np.zeros(W * 64, dtype=np.uint8)
    padded[:n] = bools
    return np.packbits(padded, bitorder="little").view("<u8").copy()


def unpack_column(words: np.ndarray, n: int) -> np.ndarray:
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits[:n].astype(bool)


def fit_threshold(values: np.ndarray) -> tuple[float, bool]:
    """Fit a one-step function to sorted values by least squared error.

    Returns (tau, degenerate). tau is the midpoint of the two segment means
    at the SSE-minimizing split (ties take the smallest split). A constant
    vector is degenerate with tau equal to that value.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.shape[0]
    if n < 2:
        raise ValueError("fit_threshold needs at least 2 values")
    if v[0] == v[-1]:
        return float(v[0]), True
    cs = np.cumsum(v)
    s = np.arange(1, n)
    low_sum = cs[:-1]
    high_sum = cs[-1] - low_sum
    # SSE(s) = sumsq - low^2/s - high^2/(n-s) on the centred values, whose
    # sums stay small: uncentred sums cancel away the SSE when the data sit
    # far from 0.
    centred = v - cs[-1] / n
    cc = np.cumsum(centred)
    sumsq = float(centred @ centred)
    sse = sumsq - cc[:-1] ** 2 / s - (cc[-1] - cc[:-1]) ** 2 / (n - s)
    # Exact ties in SSE round either way in the prefix sums; treat splits
    # within a tolerance of the centred sum of squares as tied.
    tol = 1e-12 * sumsq
    s_star = int(np.argmax(sse <= sse.min() + tol)) + 1  # first split within tol
    mean_low = low_sum[s_star - 1] / s_star
    mean_high = high_sum[s_star - 1] / (n - s_star)
    return float((mean_low + mean_high) / 2.0), False


def fit_binarization(matrix: np.ndarray, near_constant_frac: float = 1.0) -> BinarizationModel:
    """Fit per-column thresholds.

    A column is degenerate when constant, or when at least `near_constant_frac`
    of its values are identical (guards zero-inflated deeper-layer activations;
    pass 1.0 to disable the near-constant rule).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n, d = matrix.shape
    thresholds = np.empty(d)
    degenerate = np.zeros(d, dtype=bool)
    for j in range(d):
        col = matrix[:, j]
        tau, deg = fit_threshold(col)
        if not deg and near_constant_frac < 1.0:
            _, counts = np.unique(col, return_counts=True)
            if counts.max() / n >= near_constant_frac:
                deg = True
        thresholds[j] = tau
        degenerate[j] = deg
    return BinarizationModel(thresholds=thresholds, degenerate=degenerate)


def binarize(matrix: np.ndarray, model: BinarizationModel) -> BinaryMatrix:
    """Strict-threshold binarization: bit set iff value > tau.

    Degenerate columns come out all-zero.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n, d = matrix.shape
    if d != model.thresholds.shape[0]:
        raise ValueError(
            f"binarization model has {model.thresholds.shape[0]} features, matrix has {d}"
        )
    W = (n + 63) // 64
    bits = np.empty((d, W), dtype=np.uint64)
    for j in range(d):
        if model.degenerate[j]:
            bits[j] = 0
        else:
            bits[j] = pack_column(matrix[:, j] > model.thresholds[j])
    return BinaryMatrix(bits=bits, n=n, d=d)
