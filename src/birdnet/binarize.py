"""Step-function thresholding and packed-bit binarization of feature matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinarizationModel",
    "BinaryMatrix",
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


_BLOCK = 64  # columns fitted together, as one row-major (64, n) block


def _fit_rows(V: np.ndarray, near_constant_frac: float) -> tuple[np.ndarray, np.ndarray]:
    """(tau, degenerate) per row of V, one feature's values per row; sorts V
    in place. See `fit_binarization` for the rules."""
    b, n = V.shape
    if n < 2:
        raise ValueError("a threshold fit needs at least 2 values per feature")
    V.sort(axis=1)
    cs = np.cumsum(V, axis=1)
    s = np.arange(1.0, n)
    # SSE(s) = sumsq - low^2/s - high^2/(n-s) on the centred values, whose
    # sums stay small: uncentred sums cancel away the SSE when the data sit
    # far from 0. Evaluated in place in that order, so every element takes
    # the one-column expression's operations and rounds the same.
    centred = V - cs[:, -1:] / n
    cc = np.cumsum(centred, axis=1)
    sumsq = np.array([c @ c for c in centred])  # per-row dot: the 1-D sum order
    low, high = cc[:, :-1], cc[:, -1:] - cc[:, :-1]
    sse = low * low
    sse /= s
    np.subtract(sumsq[:, None], sse, out=sse)
    high *= high
    high /= n - s
    sse -= high
    # Exact ties in SSE round either way in the prefix sums; treat splits
    # within a tolerance of the centred sum of squares as tied, and take the
    # first (smallest) split within it.
    tol = 1e-12 * sumsq
    split = np.argmax(sse <= (sse.min(axis=1) + tol)[:, None], axis=1)  # s* - 1
    low_sum = cs[np.arange(b), split]
    tau = (low_sum / (split + 1) + (cs[:, -1] - low_sum) / (n - split - 1)) / 2.0
    degenerate = V[:, 0] == V[:, -1]
    tau[degenerate] = V[degenerate, 0]
    if near_constant_frac < 1.0:  # longest run of equal values, from each run's start
        idx = np.arange(n)
        starts = np.ones((b, n), dtype=bool)
        np.not_equal(V[:, 1:], V[:, :-1], out=starts[:, 1:])
        run_start = np.maximum.accumulate(np.where(starts, idx, 0), axis=1)
        longest = (idx - run_start).max(axis=1) + 1
        degenerate |= longest / n >= near_constant_frac
    return tau, degenerate


def fit_binarization(matrix: np.ndarray, near_constant_frac: float = 1.0) -> BinarizationModel:
    """Fit per-column thresholds, `_BLOCK` columns at a time.

    Each column's sorted values are fitted by a one-step function of least
    squared error: tau is the midpoint of the two segment means at the
    SSE-minimizing split (ties take the smallest split). A constant column
    is degenerate, with tau its value. So is a column in which at least
    `near_constant_frac` of the values are identical (guards zero-inflated
    deeper-layer activations; pass 1.0 to disable the near-constant rule).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    d = matrix.shape[1]
    thresholds = np.empty(d)
    degenerate = np.empty(d, dtype=bool)
    for j in range(0, d, _BLOCK):
        rows = np.array(matrix[:, j : j + _BLOCK].T, order="C")
        thresholds[j : j + _BLOCK], degenerate[j : j + _BLOCK] = _fit_rows(rows, near_constant_frac)
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
    tau = np.where(model.degenerate, np.inf, model.thresholds)  # nothing finite exceeds inf
    bools = np.zeros((d, 64 * W), dtype=bool)  # padding bits stay 0
    np.greater(matrix.T, tau[:, None], out=bools[:, :n])
    bits = np.packbits(bools, axis=1, bitorder="little").view("<u8")
    return BinaryMatrix(bits=bits, n=n, d=d)
