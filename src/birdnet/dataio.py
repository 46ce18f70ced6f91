"""CSV loading, stratified fold plans, standardization, ANOVA F preselection."""

from __future__ import annotations

import csv
import itertools
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LabeledDataset",
    "Standardizer",
    "FoldPlan",
    "load_csv",
    "stratified_kfold",
    "anova_f_select",
    "preselect_features",
    "fit_standardizer",
    "apply_standardizer",
]


@dataclass
class LabeledDataset:
    """A real-valued feature matrix with named features and k-class labels."""

    values: np.ndarray  # (n, d) float64
    feature_names: list[str]
    sample_ids: list[str]
    labels: np.ndarray  # (n,) int class indices in [0, k)
    class_names: list[str]
    n_rejected_rows: int = 0

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def k(self) -> int:
        return len(self.class_names)

    def subset(self, row_idx: np.ndarray, col_idx: np.ndarray | None = None) -> "LabeledDataset":
        cols = np.arange(self.d) if col_idx is None else np.asarray(col_idx)
        return LabeledDataset(
            values=self.values[np.ix_(np.asarray(row_idx), cols)],
            feature_names=[self.feature_names[c] for c in cols],
            sample_ids=[self.sample_ids[r] for r in np.asarray(row_idx)],
            labels=self.labels[np.asarray(row_idx)],
            class_names=list(self.class_names),
        )


@dataclass
class Standardizer:
    """Per-feature affine map (x - mean) / stddev, fitted on training rows only.

    Population (1/n) standard deviation; zero-variance features get stddev 1
    and are flagged constant, so they map to exactly 0.
    """

    means: np.ndarray
    stddevs: np.ndarray
    constant: np.ndarray  # bool, per feature


@dataclass
class FoldPlan:
    """Stratified fold assignment plus an early-stop validation mask."""

    fold_of_sample: np.ndarray  # (n,) int in [0, F)
    val_mask: np.ndarray  # (n,) bool
    seed: int
    folds: int


# One parser reads every data cell: numpy's C loadtxt over the file's lines.
_CSV = dict(dtype=np.float64, delimiter=",", quotechar='"', comments=None, ndmin=2)
# A line of nothing but these characters holds no cell and is skipped.
_BLANK = " \t\r\n\f\v,"


def _zero(cell: str) -> float:
    return 0.0


def _data_lines(fh, line_nums: list[int]):
    """The lines after the header that are not blank, appending each one's
    line number in the file to line_nums as it is read."""
    for num, line in enumerate(fh, start=2):
        if line.strip(_BLANK):
            line_nums.append(num)
            yield line


def load_csv(
    path: str,
    label_column: str,
    id_column: str | None = None,
    drop_columns: tuple[str, ...] = (),
) -> LabeledDataset:
    """Load a comma-separated, header-first CSV into a LabeledDataset.

    Every column other than the label (and optional id / dropped columns)
    must be numeric; a non-parseable cell is a hard error naming the cell.
    Rows that parse to NaN or +-inf are rejected and counted.
    Labels are factorized into class indices by first appearance.
    The cell contract (what counts as a number, a blank line or a quoted
    cell) is set out in the README's data section.
    """
    try:
        fh = open(path, encoding="utf-8-sig")
    except OSError as e:
        raise FileNotFoundError(f"cannot open dataset file {path!r}: {e}") from e
    with fh:
        header_line = fh.readline()
        if not header_line:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = next(csv.reader([header_line]))
        dupes = sorted(name for name, count in Counter(header).items() if count > 1)
        if dupes:
            raise ValueError(f"{path}: duplicate column names {dupes} in header")
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
        skip = set(drop_columns) | {label_column}
        if id_column is not None:
            if id_column not in header:
                raise ValueError(f"{path}: id column {id_column!r} not in header")
            if id_column == label_column:
                raise ValueError(f"{path}: column {id_column!r} cannot be both the label and the id")
            skip.add(id_column)
        feat_cols = [i for i, name in enumerate(header) if name not in skip]
        label_col = header.index(label_column)

        class_code: dict[str, int] = {}
        ids: list[str] = []

        def label_code(cell: str) -> int:
            label = cell.strip()
            if not label:
                raise ValueError("missing label")
            return class_code.setdefault(label, len(class_code))

        def read_id(cell: str) -> float:
            ids.append(cell.strip())
            return 0.0

        converters = {c: _zero for c in range(len(header)) if header[c] in skip}
        converters[label_col] = label_code
        if id_column is not None:
            converters[header.index(id_column)] = read_id
        # Lines stream into loadtxt, so the file's text is never held whole.
        row_nums: list[int] = []
        rows = _data_lines(fh, row_nums)
        first = next(rows, None)
        if first is None:
            raise ValueError(f"{path}: no usable data rows")
        try:
            table = np.loadtxt(itertools.chain([first], rows), converters=converters, **_CSV)
        except ValueError:
            table = None
    if table is None or table.shape != (len(row_nums), len(header)):
        raise _bad_row_error(path, header, feat_cols, converters)

    # Non-feature columns hold 0.0 or a class code, so a non-finite cell is a feature's.
    finite = np.isfinite(table).all(axis=1)
    if not finite.any():
        raise ValueError(f"{path}: no usable data rows, all {finite.size} have non-finite values")
    codes = table[finite, label_col].astype(np.int64)
    uniq, first_at, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first_at)  # classes by first appearance among the kept rows
    names = list(class_code)
    if id_column is None:
        ids = [f"row{num}" for num in row_nums]
    return LabeledDataset(
        values=table[np.ix_(finite, feat_cols)],
        feature_names=[header[c] for c in feat_cols],
        sample_ids=[ids[i] for i in np.flatnonzero(finite)],
        labels=np.argsort(order)[inverse],
        class_names=[names[u] for u in uniq[order]],
        n_rejected_rows=int(finite.size - finite.sum()),
    )


def _bad_row_error(path, header, feat_cols, converters) -> ValueError:
    """The error for a file the one-pass parse rejected: the first row, in
    file order, that loadtxt rejects on its own or that is not as wide as the
    header, naming its first non-numeric cell if it has one. Each row is
    split and read by loadtxt again, so data still has a single parser."""
    with open(path, encoding="utf-8-sig") as fh:
        fh.readline()
        nums: list[int] = []
        for line in _data_lines(fh, nums):
            try:
                if np.loadtxt([line], converters=converters, **_CSV).shape[1] == len(header):
                    continue
            except ValueError:
                pass
            cells: list[str] = []  # the row as loadtxt splits it
            np.loadtxt([line], converters=lambda cell: cells.append(cell) or 0.0, **_CSV)
            num = nums[-1]
            if len(cells) != len(header):
                return ValueError(f"{path}: row {num} has {len(cells)} cells, header has {len(header)}")
            for c in feat_cols:
                if not _reads_as_number(cells[c]):
                    return ValueError(f"{path}: non-numeric value {cells[c].strip()!r} "
                                      f"at row {num}, column {header[c]!r}")
            return ValueError(f"{path}: missing label at row {num}")
    return ValueError(f"{path}: a quoted cell runs across a line break")


def _reads_as_number(cell: str) -> bool:
    """Whether loadtxt reads this (already unquoted) cell as a float."""
    if not cell.strip():
        return False
    try:
        return np.loadtxt([cell], **{**_CSV, "quotechar": None}).size == 1
    except ValueError:
        return False


def stratified_kfold(labels: np.ndarray, folds: int, seed: int, val_fraction: float = 0.15) -> FoldPlan:
    """Deterministic stratified fold plan with a per-fold early-stop mask.

    Per class, members are permuted by a PCG64 generator seeded with `seed`
    and dealt round-robin, so per-fold class counts are balanced within 1.
    `val_mask` marks a stratified `val_fraction` of each (fold, class) cell,
    giving every training fold (union of the other folds) the same fraction.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")
    rng = np.random.Generator(np.random.PCG64(seed))
    fold_of_sample = np.full(n, -1, dtype=np.int64)
    val_mask = np.zeros(n, dtype=bool)
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if members.size < folds:
            raise ValueError(
                f"class {int(c)} has only {members.size} members, fewer than {folds} folds"
            )
        perm = rng.permutation(members)
        fold_of_sample[perm] = np.arange(perm.size) % folds
        for f in range(folds):
            cell = perm[np.arange(perm.size) % folds == f]
            n_val = int(round(val_fraction * cell.size))
            n_val = min(n_val, max(cell.size - 1, 0))
            val_mask[cell[:n_val]] = True
    return FoldPlan(fold_of_sample=fold_of_sample, val_mask=val_mask, seed=seed, folds=folds)


def stratified_holdout(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Boolean mask marking a stratified held-out subset of the given fraction.

    Per class, a seeded permutation selects round(fraction * size) members,
    capped so at least one member stays out of the held-out set.
    """
    labels = np.asarray(labels)
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = np.zeros(labels.shape[0], dtype=bool)
    for c in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == c))
        n_held = min(int(round(fraction * members.size)), members.size - 1)
        mask[members[:n_held]] = True
    return mask


def anova_f_select(data: LabeledDataset, m: int) -> np.ndarray:
    """Indices of the m features with largest between/within class variance ratio.

    F = [sum_c n_c (xbar_c - xbar)^2 / (k-1)] / [sum_c sum_{i in c} (x_i - xbar_c)^2 / (n-k)].
    Zero within-class variance with nonzero between-class variance ranks as +inf;
    zero between-class variance gives F = 0. Ties break toward the lower index.
    """
    X, y = data.values, data.labels
    n, d = X.shape
    if not 1 <= m <= d:
        raise ValueError(f"requested m={m} features, need 1 <= m <= d={d}")
    classes = np.unique(y)
    k = classes.size
    if k < 2:
        raise ValueError("ANOVA F selection needs at least 2 classes")
    grand = X.mean(axis=0)
    between = np.zeros(d)
    within = np.zeros(d)
    for c in classes:
        Xc = X[y == c]
        mc = Xc.mean(axis=0)
        between += Xc.shape[0] * (mc - grand) ** 2
        within += ((Xc - mc) ** 2).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        F = (between / (k - 1)) / (within / (n - k))
    F = np.where(between == 0.0, 0.0, F)
    F = np.where((within == 0.0) & (between > 0.0), np.inf, F)
    order = np.lexsort((np.arange(d), -F))  # stable: descending F, then lower index
    return np.sort(order[:m])


def preselect_features(data: LabeledDataset, m: int | None) -> np.ndarray:
    """Columns kept by ANOVA F preselection of the top m features. m=None
    means 2000 when d > 2000 and no selection otherwise; m >= d keeps all."""
    if m is None and data.d > 2000:
        m = 2000
    if m is None or m >= data.d:
        return np.arange(data.d)
    return anova_f_select(data, m)


def fit_standardizer(rows: np.ndarray) -> Standardizer:
    """Fit per-feature mean and population stddev on training rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] < 2:
        raise ValueError("standardizer needs at least 2 training rows")
    means = rows.mean(axis=0)
    std = rows.std(axis=0)  # population (1/n)
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    return Standardizer(means=means, stddevs=std, constant=constant)


def apply_standardizer(s: Standardizer, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1] != s.means.shape[0]:
        raise ValueError(
            f"standardizer fitted on {s.means.shape[0]} features, got {rows.shape[1]}"
        )
    return (rows - s.means) / s.stddevs

