import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birdnet.dataio import (
    Standardizer,
    anova_f_select,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    mean_var,
    preselect_features,
    stratified_holdout,
    stratified_kfold,
)
from helpers import oracle_load_csv


class TestLoadCsv:
    def _write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_basic(self, tmp_path):
        path = self._write(
            tmp_path,
            "id,g0,g1,label\n" "s1,1.0,2.0,a\n" "s2,3.0,4.0,b\n" "s3,5.0,6.0,a\n",
        )
        ds = load_csv(path, "label", id_column="id")
        assert ds.n == 3 and ds.d == 2 and ds.k == 2
        assert ds.feature_names == ["g0", "g1"]
        assert ds.sample_ids == ["s1", "s2", "s3"]
        # classes factorized by first appearance
        assert ds.class_names == ["a", "b"]
        assert ds.labels.tolist() == [0, 1, 0]
        assert np.array_equal(ds.values, [[1, 2], [3, 4], [5, 6]])

    def test_drop_columns(self, tmp_path):
        path = self._write(tmp_path, "g0,meta,label\n1.0,x,a\n2.0,y,b\n")
        ds = load_csv(path, "label", drop_columns=("meta",))
        assert ds.feature_names == ["g0"]

    def test_non_numeric_cell_is_hard_error(self, tmp_path):
        path = self._write(tmp_path, "g0,label\n1.0,a\noops,b\n")
        with pytest.raises(ValueError, match="'oops'.*row 3.*'g0'"):
            load_csv(path, "label")

    def test_nan_row_rejected_and_counted(self, tmp_path):
        path = self._write(tmp_path, "g0,label\n1.0,a\nnan,b\n2.0,a\ninf,b\n3.0,b\n")
        ds = load_csv(path, "label")
        assert ds.n == 3
        assert ds.n_rejected_rows == 2

    def test_missing_label_column(self, tmp_path):
        path = self._write(tmp_path, "g0,g1\n1.0,2.0\n")
        with pytest.raises(ValueError, match="label column"):
            load_csv(path, "label")

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/nonexistent/nope.csv", "label")

    def test_ragged_row(self, tmp_path):
        path = self._write(tmp_path, "g0,g1,label\n1.0,2.0,a\n3.0,b\n")
        with pytest.raises(ValueError, match="row 3"):
            load_csv(path, "label")

    def test_empty_label(self, tmp_path):
        path = self._write(tmp_path, "g0,label\n1.0,\n")
        with pytest.raises(ValueError, match="missing label"):
            load_csv(path, "label")

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write(tmp_path, "g0,label\n1.0,a\n\n2.0,b\n")
        ds = load_csv(path, "label")
        assert ds.n == 2

    @pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("final_eol", [False, True])
    def test_every_row_read_for_each_line_end(self, tmp_path, eol, final_eol):
        # load_csv sizes its table from the file's line count, so that count may never fall short.
        text = eol.join(["g0,label", "1,a", "", " ,", "22,b", "333,a"]) + (eol if final_eol else "")
        ds = load_csv(self._write(tmp_path, text), "label")
        assert ds.values[:, 0].tolist() == [1.0, 22.0, 333.0]

    def test_kept_cells_compact_in_place_across_row_blocks(self, tmp_path):
        # 1000 feature columns make 8000-byte rows, so 100 rows span four
        # blocks of the in-place compaction; the label comes first, and the
        # id and a dropped column sit between feature columns.
        rng = np.random.default_rng(7)
        n, d = 100, 1000
        X = rng.normal(size=(n, d)).astype(object)
        for row, cell in ((0, "nan"), (37, "inf"), (38, "-inf"), (63, "nan"), (n - 1, "inf")):
            X[row, rng.integers(d)] = cell
        header = ["label", *(f"g{j}" for j in range(400)), "sample", "junk",
                  *(f"g{j}" for j in range(400, d))]
        lines = [",".join(header)]
        for i in range(n):
            cells = [repr(v) if isinstance(v, float) else v for v in X[i]]
            lines.append(",".join([f"c{i % 3}", *cells[:400], f"s{i}", "x", *cells[400:]]))
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        ds = load_csv(path, "label", id_column="sample", drop_columns=("junk",))
        want = oracle_load_csv(path, "label", id_column="sample", drop_columns=("junk",))
        assert ds.values.dtype == np.float64 and ds.values.flags.c_contiguous
        assert ds.values.shape == (n - 5, d)
        assert ds.values.tobytes() == want.values.tobytes()
        assert ds.sample_ids == want.sample_ids and ds.n_rejected_rows == want.n_rejected_rows == 5
        assert np.array_equal(ds.labels, want.labels) and ds.class_names == want.class_names


def _write(tmp_path, text, name="data.csv", encoding="utf-8"):
    p = tmp_path / name
    p.write_bytes(text.encode(encoding))
    return str(p)


# Generated cells by kind. Every kind but "divergent" is read alike by the
# oracle (csv module + float()) and by load_csv; "divergent" cells are ones
# float() reads and the cell contract rejects.
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
)
_PAD = st.sampled_from(["", " ", "  ", "\t"])
_CELLS = {
    "number": st.builds(lambda a, v, b: a + v + b, _PAD, _NUMBER, _PAD),
    "quoted": _NUMBER.map(lambda v: f'"{v}"'),
    "nonfinite": st.sampled_from(["nan", "NaN", "+inf", "-inf", "Infinity", "1e400", " -1E400 "]),
    "bad": st.sampled_from(["oops", "", " ", "1e", "0x10", ' "4"', '"1,5"']),
    "divergent": st.sampled_from(["1_000", "2_5.0", "１２"]),
}
_LABELS = ["a", "b", " c ", '"x,y"', '"q""t"']
_GOOD = ["number"] * 4 + ["quoted", "nonfinite"]
_BLANK_LINES = st.sampled_from(["", " ", ",,", "\t, ,"])


@st.composite
def csv_files(draw):
    """CSV text plus the error the cell contract gives it (None if it loads).

    The expected error follows the contract's order: the first non-blank
    row, in file order, that has the wrong width, else a bad feature cell
    (the first from the left), else an empty label."""
    d = draw(st.integers(1, 4))
    use_id = draw(st.booleans())
    names = [f"g{j}" for j in range(d)]
    header = (["id"] if use_id else []) + [draw(st.sampled_from([n, f'"{n}"'])) for n in names]
    header.append("label")
    feat_at = list(range(1 if use_id else 0, len(header) - 1))
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines, error = [",".join(header)], None
    # Half the files are spoilt: any cell may be bad, a label empty, a row
    # too short or too long.
    spoilt = draw(st.booleans())
    kinds_of = st.sampled_from(_GOOD + ["bad", "divergent"] if spoilt else _GOOD)
    labels = st.sampled_from(_LABELS + ["", "  "] if spoilt else _LABELS)
    widths = st.sampled_from([0] * 8 + [-1, 1] if spoilt else [0])
    for i in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_BLANK_LINES))
        kinds = draw(st.lists(kinds_of, min_size=d, max_size=d))
        cells = ([draw(st.sampled_from([f"s{i}", f'"s,{i}"', f" s{i}\t"]))] if use_id else [])
        cells += [draw(_CELLS[k]) for k in kinds] + [draw(labels)]
        width = draw(widths)
        cells = cells[:width] if width < 0 else cells + ["9"] * width
        lines.append(",".join(cells))
        num = len(lines)
        if error is not None or all(c.strip() == "" for c in cells):
            continue
        if len(cells) != len(header):
            error = f"row {num} has {len(cells)} cells, header has {len(header)}"
            continue
        bad = [(c, cells[c]) for c, k in zip(feat_at, kinds) if k in ("bad", "divergent")]
        if bad:
            c, cell = bad[0]
            shown = cell.strip()[1:-1] if cell.startswith('"') else cell.strip()
            error = f"non-numeric value {shown!r} at row {num}, column {names[c - feat_at[0]]!r}"
        elif cells[-1].strip() == "":
            error = f"missing label at row {num}"
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    return text, ("id" if use_id else None), error


def _outcome(load, path, id_column):
    try:
        return load(path, "label", id_column=id_column)
    except ValueError as e:
        return str(e)


class TestCellContract:
    """load_csv against the per-cell oracle it replaced (tests/helpers.py)."""

    @given(csv_files())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_where_the_contract_agrees(self, tmp_path_factory, case):
        text, id_column, error = case
        path = _write(tmp_path_factory.mktemp("csv"), text)
        got = _outcome(load_csv, path, id_column)
        if error is not None:
            assert got == f"{path}: {error}"
            return
        want = _outcome(oracle_load_csv, path, id_column)
        if isinstance(want, str):  # every row rejected as non-finite, or none at all
            assert isinstance(got, str) and got.startswith(want)
            return
        assert not isinstance(got, str), got
        assert got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.dtype == np.float64
        assert got.sample_ids == want.sample_ids
        assert got.labels.tolist() == want.labels.tolist()
        assert got.class_names == want.class_names
        assert got.feature_names == want.feature_names
        assert got.n_rejected_rows == want.n_rejected_rows

    def test_quoted_cell_may_not_span_lines(self, tmp_path):
        path = _write(tmp_path, 'g0,label\n4,"x\n5,y"\n')
        assert oracle_load_csv(path, "label").class_names == ["x\n5,y"]
        with pytest.raises(ValueError, match="quoted cell runs across a line break"):
            load_csv(path, "label")

    def test_label_column_cannot_be_the_id(self, tmp_path):
        path = _write(tmp_path, "g0,label\n1,a\n")
        with pytest.raises(ValueError, match="both the label and the id"):
            load_csv(path, "label", id_column="label")

    def test_utf8_bom_is_read(self, tmp_path):
        text = "label,g0,g1\na,1.0,2.0\nb,3.0,4.0\n"
        plain = load_csv(_write(tmp_path, text, "plain.csv"), "label")
        bom = load_csv(_write(tmp_path, text, "bom.csv", encoding="utf-8-sig"), "label")
        assert bom.feature_names == plain.feature_names == ["g0", "g1"]
        assert bom.values.tobytes() == plain.values.tobytes()
        assert bom.class_names == plain.class_names and bom.sample_ids == plain.sample_ids


class TestStratifiedKfold:
    def test_mice_shaped_plan(self):
        # 1080 samples over 8 classes of 135 each, 5 folds.
        labels = np.repeat(np.arange(8), 135)
        plan = stratified_kfold(labels, 5, seed=42)
        sizes = np.bincount(plan.fold_of_sample, minlength=5)
        assert sizes.sum() == 1080
        assert all(abs(int(s) - 216) <= 1 for s in sizes)
        for f in range(5):
            for c in range(8):
                in_cell = int(((plan.fold_of_sample == f) & (labels == c)).sum())
                assert abs(in_cell - 27) <= 1

    def test_val_mask_stratified_within_training_folds(self):
        labels = np.repeat(np.arange(4), 100)
        plan = stratified_kfold(labels, 5, seed=0)
        for f in range(5):
            train = plan.fold_of_sample != f
            frac = plan.val_mask[train].mean()
            assert abs(frac - 0.15) < 0.02
            # never marks test rows differently per fold: mask is global
        assert 0 < plan.val_mask.sum() < len(labels)

    def test_deterministic(self):
        labels = np.repeat([0, 1, 2], 40)
        a = stratified_kfold(labels, 4, seed=7)
        b = stratified_kfold(labels, 4, seed=7)
        assert np.array_equal(a.fold_of_sample, b.fold_of_sample)
        assert np.array_equal(a.val_mask, b.val_mask)
        c = stratified_kfold(labels, 4, seed=8)
        assert not np.array_equal(a.fold_of_sample, c.fold_of_sample)

    def test_class_smaller_than_folds(self):
        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1])
        with pytest.raises(ValueError, match="class 0"):
            stratified_kfold(labels, 4, seed=0)


class TestStratifiedHoldout:
    def test_fraction_and_stratification(self):
        labels = np.repeat(np.arange(8), 135)
        mask = stratified_holdout(labels, 0.2, seed=42)
        assert int(mask.sum()) == 216  # 80/20 of n=1080
        assert int((~mask).sum()) == 864
        for c in range(8):
            assert int(mask[labels == c].sum()) == 27

    def test_leaves_at_least_one_per_class(self):
        labels = np.array([0, 0, 1, 1])
        mask = stratified_holdout(labels, 0.9, seed=0)
        for c in (0, 1):
            assert int((~mask & (labels == c)).sum()) >= 1

    @pytest.mark.parametrize("fraction", [-0.2, 0.0, 1.0, 1.5, float("nan"), float("inf")])
    def test_rejects_fraction_outside_zero_one(self, fraction):
        # -0.2 once held out 16 of every 20 rows through a negative slice.
        with pytest.raises(ValueError, match=r"a held-out fraction is in \(0, 1\), got"):
            stratified_holdout(np.repeat([0, 1], 10), fraction, seed=0)


class TestAnovaFSelect:
    def test_selects_label_correlated_feature(self):
        rng = np.random.default_rng(0)
        n = 120
        y = rng.integers(0, 2, n)
        X = rng.normal(size=(n, 6))
        X[:, 3] = y + rng.normal(0, 0.01, n)
        sel = anova_f_select(X, y, 1)
        assert sel.tolist() == [3]

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        n, d, k = 60, 10, 3
        y = rng.integers(0, k, n)
        X = rng.normal(size=(n, d))
        # direct F per feature
        F = np.empty(d)
        grand = X.mean(axis=0)
        for j in range(d):
            b = sum(
                (y == c).sum() * (X[y == c, j].mean() - grand[j]) ** 2
                for c in range(k)
            ) / (k - 1)
            w = sum(
                ((X[y == c, j] - X[y == c, j].mean()) ** 2).sum() for c in range(k)
            ) / (n - k)
            F[j] = b / w
        m = 4
        want = np.sort(np.argsort(-F, kind="stable")[:m])
        assert np.array_equal(anova_f_select(X, y, m), want)

    def test_zero_within_variance_ranks_first(self):
        X = np.array([[0.0, 5.0], [0.0, 5.0], [1.0, 5.0], [1.0, 5.0]])
        y = np.array([0, 0, 1, 1])
        sel = anova_f_select(X, y, 1)
        assert sel.tolist() == [0]  # perfect separator, F = +inf

    def test_constant_feature_ranks_last(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        X[:, 1] = 7.0  # between == 0 -> F = 0
        y = rng.integers(0, 2, 40)
        sel = anova_f_select(X, y, 2)
        assert 1 not in sel.tolist()

    def test_m_too_large(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 3))
        y = rng.integers(0, 2, 20)
        with pytest.raises(ValueError):
            anova_f_select(X, y, 4)

    def test_needs_two_classes(self):
        X = np.random.default_rng(4).normal(size=(10, 3))
        with pytest.raises(ValueError, match="ANOVA F selection needs at least 2 classes"):
            anova_f_select(X, np.zeros(10, dtype=int), 2)

    def test_default_keeps_2000_of_a_wider_table(self):
        # The protocol's automatic preselection: the 2000 top-F columns past
        # 2000 features, every column up to it.
        rng = np.random.default_rng(5)
        X, y = rng.normal(size=(8, 2001)), np.repeat([0, 1], 4)
        assert np.array_equal(preselect_features(X, y, None), anova_f_select(X, y, 2000))
        assert np.array_equal(preselect_features(X[:, :2000], y, None), np.arange(2000))

    @pytest.mark.parametrize("m", [0, -2])
    def test_m_below_one(self, m):
        # A negative m once kept d - |m| features by a negative slice.
        rng = np.random.default_rng(3)
        X, y = rng.normal(size=(20, 5)), rng.integers(0, 2, 20)
        with pytest.raises(ValueError, match=f"requested m={m} features"):
            preselect_features(X, y, m)


class TestStandardizer:
    def test_worked_example(self):
        s = fit_standardizer(np.array([[0.0], [10.0]]))
        assert s.means[0] == 5.0
        assert s.stddevs[0] == 5.0  # population convention
        out = apply_standardizer(s, np.array([[0.0], [10.0]]))
        assert out.ravel().tolist() == [-1.0, 1.0]

    def test_constant_feature_maps_to_zero(self):
        s = fit_standardizer(np.full((5, 1), 3.0))
        assert s.constant[0]
        assert s.stddevs[0] == 1.0
        out = apply_standardizer(s, np.full((2, 1), 3.0))
        assert np.array_equal(out, np.zeros((2, 1)))

    @pytest.mark.parametrize("means, stddevs, constant", [
        ([0.0, np.nan], [1.0, 1.0], [0, 0]),
        ([0.0, np.inf], [1.0, 1.0], [0, 0]),
        ([0.0, 1.0], [1.0, 0.0], [0, 0]),
        ([0.0, 1.0], [1.0, -2.0], [0, 0]),
        ([0.0, 1.0], [np.nan, 1.0], [0, 0]),
        ([0.0, 1.0], [1.0, np.inf], [0, 0]),
        ([0.0, 1.0], [1.0], [0, 0]),
        ([0.0, 1.0], [1.0, 1.0], [0]),
        ([[0.0, 1.0]], [[1.0, 1.0]], [[0, 0]]),
        (0.0, 1.0, 0),
    ], ids=["mean-nan", "mean-inf", "stddev-zero", "stddev-negative", "stddev-nan", "stddev-inf",
            "short-stddevs", "short-flags", "2-D", "0-D"])
    def test_rejects_what_it_cannot_apply(self, means, stddevs, constant):
        with pytest.raises(ValueError, match="a standardizer needs 1-D finite means, finite stddevs > 0"):
            Standardizer(np.array(means), np.array(stddevs), np.array(constant, dtype=bool))

    def test_needs_two_rows(self):
        with pytest.raises(ValueError, match="standardizer needs at least 2 training rows"):
            fit_standardizer(np.zeros((1, 3)))

    def test_dimension_mismatch(self):
        s = fit_standardizer(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            apply_standardizer(s, np.zeros((4, 3)))

    @pytest.mark.parametrize("n,d", [(2, 3), (200, 1000), (5, 40000)])
    def test_row_chunks_sum_as_numpy_does(self, n, d):
        # One chunk, many chunks, and one row per chunk: the same bits.
        X = np.random.default_rng(n).normal(3.0, 2.5, size=(n, d)) * np.linspace(0.1, 100.0, d)
        s = fit_standardizer(X)
        assert np.array_equal(s.means, X.mean(axis=0)) and np.array_equal(s.stddevs, X.std(axis=0))
        means, var = mean_var(X)
        assert np.array_equal(means, X.mean(axis=0)) and np.array_equal(var, X.var(axis=0))

    @given(st.integers(min_value=2, max_value=40), st.integers(0, 2**31))
    @settings(max_examples=30)
    def test_standardized_moments(self, n, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(3.0, 2.5, size=(n, 3))
        s = fit_standardizer(X)
        Z = apply_standardizer(s, X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-10)

