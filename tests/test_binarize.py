import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birdnet.binarize import binarize, fit_binarization
from helpers import (
    fit_threshold,
    oracle_binarize,
    oracle_fit_binarization,
    oracle_fit_threshold,
)


def brute_force_threshold(values):
    """Exhaustive split search; returns (best SSE, tau at the smallest argmin)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.shape[0]
    best_sse, best_tau = np.inf, None
    for s in range(1, n):
        low, high = v[:s], v[s:]
        sse = ((low - low.mean()) ** 2).sum() + ((high - high.mean()) ** 2).sum()
        if sse < best_sse - 1e-12:
            best_sse, best_tau = sse, (low.mean() + high.mean()) / 2.0
    return best_sse, best_tau


class TestFitThreshold:
    def test_step_with_plateau(self):
        tau, deg = fit_threshold(np.array([0.0, 0.0, 0.0, 10.0, 10.0]))
        assert not deg
        assert tau == 5.0

    def test_outlier_split(self):
        tau, deg = fit_threshold(np.array([1.0, 2.0, 3.0, 100.0]))
        assert not deg
        assert tau == 51.0

    def test_constant_is_degenerate(self):
        tau, deg = fit_threshold(np.full(7, 3.25))
        assert deg
        assert tau == 3.25

    def test_two_values(self):
        tau, deg = fit_threshold(np.array([1.0, 3.0]))
        assert not deg and tau == 2.0

    def test_needs_two_values(self):
        with pytest.raises(ValueError, match="needs at least 2 values per feature"):
            fit_threshold(np.array([1.0]))

    def test_exact_sse_tie_takes_smallest_split(self):
        # Sorted [-4, -1, 0, 3]: splits after 1 and after 3 values both have
        # SSE 78/9; the prefix sums round the tie toward the larger split.
        tau, deg = fit_threshold(np.array([0.0, -1.0, 3.0, -4.0]))
        assert not deg
        assert tau == pytest.approx(-5.0 / 3.0, abs=1e-12)

    def test_data_far_from_zero_keeps_the_split(self):
        # Sorted [-5, -4, 0, 3, 4, 5] + 1e8: the best split is after 2 values.
        # Uncentred prefix sums of ~1e16 cancel the SSE away and pick another.
        tau, deg = fit_threshold(np.array([0.0, 3.0, 5.0, -5.0, -4.0, 4.0]) + 1e8)
        assert not deg
        assert tau == 1e8 - 0.75

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=30)
        tau, _ = fit_threshold(v)
        tau2, _ = fit_threshold(v[::-1])
        assert tau == tau2

    @given(
        st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=12)
    )
    def test_matches_brute_force(self, ints):
        v = np.asarray(ints, dtype=np.float64)
        if v.min() == v.max():
            _, deg = fit_threshold(v)
            assert deg
            return
        tau, deg = fit_threshold(v)
        assert not deg
        best_sse, best_tau = brute_force_threshold(v)
        # Same optimum (ties go to the smallest split in both implementations).
        assert tau == pytest.approx(best_tau, abs=1e-9)

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=2,
            max_size=20,
        ),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_shift_covariance(self, vals, shift):
        v = np.asarray(vals)
        if v.min() == v.max():
            return
        tau, _ = fit_threshold(v)
        tau_shifted, _ = fit_threshold(v + shift)
        assert tau_shifted == pytest.approx(tau + shift, abs=1e-7)


class TestBinarize:
    def test_strict_threshold(self):
        X = np.array([[0.0], [5.0], [10.0]])
        model = fit_binarization(X)
        # Splits (0|5,10) and (0,5|10) tie on SSE; the smaller split wins,
        # giving segment means (0, 7.5) and tau 3.75.
        assert model.thresholds[0] == pytest.approx(3.75)
        bm = binarize(X, model)
        assert bm.bits[0].tolist() == [False, True, True]

    def test_value_at_threshold_is_low(self):
        X = np.array([[0.0], [10.0], [5.0]])
        model = fit_binarization(X)
        model.thresholds[0] = 5.0
        bm = binarize(X, model)
        assert bm.bits[0].tolist() == [False, True, False]

    def test_degenerate_column_all_zero(self):
        X = np.column_stack([np.full(10, 2.0), np.arange(10.0)])
        model = fit_binarization(X)
        assert model.degenerate.tolist() == [True, False]
        bm = binarize(X, model)
        assert not bm.bits[0].any()
        assert bm.bits[1].any()

    def test_near_constant_rule(self):
        col = np.zeros(100)
        col[0] = 5.0  # 99% identical
        X = col.reshape(-1, 1)
        assert not fit_binarization(X, near_constant_frac=1.0).degenerate[0]
        assert fit_binarization(X, near_constant_frac=0.99).degenerate[0]

    def test_dimension_mismatch(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        model = fit_binarization(X)
        with pytest.raises(ValueError):
            binarize(X[:, :2], model)

    def test_bits_match_strict_threshold(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(67, 4))
        model = fit_binarization(X)
        bm = binarize(X, model)
        for j in range(4):
            assert np.array_equal(bm.bits[j], X[:, j] > model.thresholds[j])

    def test_thresholds_report(self):
        X = np.column_stack([np.full(4, 1.0), np.array([0.0, 0.0, 2.0, 2.0])])
        model = fit_binarization(X)
        text = model.to_text(["const", "step"])
        assert "const\tDEGENERATE" in text
        assert "step\t1.0" in text


def _mixed_matrix(rng, n, d):
    """n x d columns cycling through what the blocked kernel must fit like
    the per-column oracle: normal values, small integers (SSE ties), values
    far from 0, constant columns, and one value on every row but the first."""
    X = rng.normal(size=(n, d))
    X[:, 1::5] = rng.integers(-3, 4, size=(n, len(range(1, d, 5))))
    X[:, 2::5] = X[:, 2::5] * 1e-3 + 1e8
    X[:, 3::5] = X[0, 3::5]
    X[1:, 4::5] = 7.0
    return X


class TestBlockedKernel:
    """fit_binarization and binarize, 64 columns at a time, against the
    per-column oracle in tests/helpers.py: bit-identical thresholds and bits."""

    @pytest.mark.parametrize("d", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("n", [2, 63, 64, 65])
    def test_matches_per_column_oracle(self, n, d):
        X = _mixed_matrix(np.random.default_rng(100 * n + d), n, d)
        before = X.copy()
        for frac in (1.0, 0.6):
            model = fit_binarization(X, near_constant_frac=frac)
            want = oracle_fit_binarization(X, near_constant_frac=frac)
            assert np.array_equal(model.thresholds, want.thresholds)
            assert np.array_equal(model.degenerate, want.degenerate)
            bm = binarize(X, model)
            assert bm.bits.dtype == bool and bm.bits.shape == (d, n)
            assert bm.bits.flags.c_contiguous
            assert np.array_equal(bm.bits, oracle_binarize(X, model))
        assert np.array_equal(X, before)  # the fit sorts copies, never its input
        for j in range(d):
            assert fit_threshold(X[:, j]) == oracle_fit_threshold(X[:, j])

    def test_constant_columns(self):
        X = np.tile(np.array([[3.25, -1e8, 0.0]]), (70, 1))
        model = fit_binarization(X)
        assert model.degenerate.all() and model.thresholds.tolist() == [3.25, -1e8, 0.0]
        assert not binarize(X, model).bits.any()

    def test_near_constant_boundary(self):
        # 200 rows: 198 equal values are exactly the 0.99 boundary, 197 fall
        # short; the run sits at the low end, at the top and in the middle.
        X = np.tile(np.arange(200.0)[:, None], (1, 6))
        X[:198, 0], X[2:, 1], X[1:199, 2] = -1.0, 500.0, 50.0
        X[:197, 3], X[3:, 4], X[1:198, 5] = -1.0, 500.0, 50.0
        model = fit_binarization(X, near_constant_frac=0.99)
        assert model.degenerate.tolist() == [True, True, True, False, False, False]
        want = oracle_fit_binarization(X, near_constant_frac=0.99)
        assert np.array_equal(model.degenerate, want.degenerate)
        assert np.array_equal(model.thresholds, want.thresholds)

    def test_sse_ties_and_values_far_from_zero(self):
        # Both columns' two best splits tie exactly. In the second the prefix
        # sums round the later split below the earlier; the tolerance still
        # takes the smaller split.
        X = np.column_stack([[0.0, -1.0, 3.0, -4.0], [-7.1, -4.7, -1.5, -3.9]])
        for Y in (X, X + 1e8):
            assert np.array_equal(fit_binarization(Y).thresholds,
                                  oracle_fit_binarization(Y).thresholds)
        assert fit_binarization(X).thresholds.tolist() == pytest.approx(
            [-5.0 / 3.0, (-7.1 - 10.1 / 3.0) / 2.0], abs=1e-12)
        far = np.array([0.0, 3.0, 5.0, -5.0, -4.0, 4.0]) + 1e8
        assert fit_binarization(far[:, None]).thresholds[0] == 1e8 - 0.75
