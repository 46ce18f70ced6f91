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
    "preselect_and_standardize",
    "mean_var",
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


@dataclass
class Standardizer:
    """Per-feature affine map (x - mean) / stddev, fitted on training rows only.

    Population (1/n) standard deviation; zero-variance features get stddev 1 and
    are flagged constant, so they map to 0. Means are finite, stddevs finite and > 0.
    """

    means: np.ndarray
    stddevs: np.ndarray
    constant: np.ndarray  # bool, per feature

    def __post_init__(self):
        m, s = self.means, self.stddevs
        if not (np.ndim(m) == 1 and np.shape(m) == np.shape(s) == np.shape(self.constant)
                and np.isfinite(m).all() and np.isfinite(s).all() and (s > 0).all()):
            raise ValueError("a standardizer needs 1-D finite means, finite stddevs > 0 and flags of one length")


@dataclass
class FoldPlan:
    """Stratified fold assignment plus an early-stop validation mask."""

    fold_of_sample: np.ndarray  # (n,) int in [0, F)
    val_mask: np.ndarray  # (n,) bool


# One parser reads every data cell: numpy's C loadtxt over the file's lines.
_CSV = dict(dtype=np.float64, delimiter=",", quotechar='"', comments=None, ndmin=2)
# A line of nothing but these characters holds no cell and is skipped.
_BLANK = " \t\r\n\f\v,"
_CHUNK_BYTES = 1 << 18  # rows are summed, or moved within the parsed table, ~256 KiB at a time


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
    `values` is a C-contiguous view into the parsed table, so the file is held once.
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
    # Kept feature cells move left in table's buffer a block of rows at a time: no
    # row's new place starts after its old one, and a block is read before it is written.
    keep, cols = np.flatnonzero(finite), np.asarray(feat_cols, dtype=np.intp)
    values = table.reshape(-1)[: keep.size * cols.size].reshape(keep.size, cols.size)
    step = max(1, _CHUNK_BYTES // max(8 * cols.size, 1))
    for i in range(0, keep.size, step):
        values[i : i + step] = table[np.ix_(keep[i : i + step], cols)]
    return LabeledDataset(
        values=values,
        feature_names=[header[c] for c in feat_cols],
        sample_ids=[ids[i] for i in keep],
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


VAL_FRACTION = 0.15  # the share of training rows held out for early stopping


def stratified_kfold(labels: np.ndarray, folds: int, seed: int) -> FoldPlan:
    """Deterministic stratified fold plan with a per-fold early-stop mask.

    Per class, members are permuted by a PCG64 generator seeded with `seed`
    and dealt round-robin, so per-fold class counts are balanced within 1.
    `val_mask` marks a stratified VAL_FRACTION of each (fold, class) cell,
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
            n_val = int(round(VAL_FRACTION * cell.size))
            n_val = min(n_val, max(cell.size - 1, 0))
            val_mask[cell[:n_val]] = True
    return FoldPlan(fold_of_sample=fold_of_sample, val_mask=val_mask)


def stratified_holdout(labels: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """Boolean mask marking a stratified held-out subset of the given fraction.

    Per class, a seeded permutation selects round(fraction * size) members,
    capped so at least one member stays out of the held-out set.
    """
    if not 0.0 < fraction < 1.0:  # NaN fails too
        raise ValueError(f"a held-out fraction is in (0, 1), got {fraction}")
    labels = np.asarray(labels)
    rng = np.random.Generator(np.random.PCG64(seed))
    mask = np.zeros(labels.shape[0], dtype=bool)
    for c in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == c))
        n_held = min(int(round(fraction * members.size)), members.size - 1)
        mask[members[:n_held]] = True
    return mask


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # an overflow's inf or NaN F is ranked too
def anova_f_select(X: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Indices of the m columns of X (rows labelled y) with largest
    between/within class variance ratio.

    F = [sum_c n_c (xbar_c - xbar)^2 / (k-1)] / [sum_c sum_{i in c} (x_i - xbar_c)^2 / (n-k)].
    Zero within-class variance with nonzero between-class variance ranks as +inf;
    zero between-class variance gives F = 0. Ties break toward the lower index.
    """
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
    F = (between / (k - 1)) / (within / (n - k))
    F = np.where(between == 0.0, 0.0, F)
    F = np.where((within == 0.0) & (between > 0.0), np.inf, F)
    order = np.lexsort((np.arange(d), -F))  # stable: descending F, then lower index
    return np.sort(order[:m])


def preselect_features(X: np.ndarray, y: np.ndarray, m: int | None) -> np.ndarray:
    """Columns of X kept by ANOVA F preselection of the top m features. m=None
    means 2000 when d > 2000 and no selection otherwise; m >= d keeps all."""
    d = X.shape[1]
    if m is None and d > 2000:
        m = 2000
    if m is None or m >= d:
        return np.arange(d)
    return anova_f_select(X, y, m)


def preselect_and_standardize(X: np.ndarray, y: np.ndarray, m: int | None):
    """(X, cols, Standardizer): X's columns that `preselect_features` keeps, standardized.
    Writes into X, which is narrowed to a copy only when the selection drops columns."""
    cols = preselect_features(X, y, m)
    if cols.size < X.shape[1]:
        X = X.take(cols, axis=1)
    std = fit_standardizer(X)
    X -= std.means
    X /= std.stddevs
    return X, cols, std


def mean_var(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population variance of float64 rows, summing squared deviations
    ~256 KiB of rows at a time, in row order, with no (n, d) temporary: on row-major
    rows the bits are those of rows.mean(axis=0) and rows.var(axis=0)."""
    means = rows.mean(axis=0)
    ssd, step = 0.0, max(1, _CHUNK_BYTES // max(rows[0].nbytes, 1))
    for i in range(0, rows.shape[0], step):
        dev = (rows[i : i + step] - means) ** 2
        dev[0] += ssd  # the chunk's sum continues the running one
        ssd = dev.sum(axis=0)
    return means, ssd / rows.shape[0]


@np.errstate(over="ignore")  # an overflow makes an infinite stddev, which Standardizer refuses
def fit_standardizer(rows: np.ndarray) -> Standardizer:
    """Fit per-feature mean and population stddev on training rows by `mean_var`:
    on row-major rows the bits are those of rows.std(axis=0)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[0] < 2:
        raise ValueError("standardizer needs at least 2 training rows")
    means, var = mean_var(rows)
    std = np.sqrt(var)  # population (1/n)
    constant = std == 0.0
    std = np.where(constant, 1.0, std)
    return Standardizer(means=means, stddevs=std, constant=constant)


@np.errstate(over="ignore")  # an infinite result is refused where the rows are used
def apply_standardizer(s: Standardizer, rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[1] != s.means.shape[0]:
        raise ValueError(
            f"standardizer fitted on {s.means.shape[0]} features, got {rows.shape[1]}"
        )
    return (rows - s.means) / s.stddevs

