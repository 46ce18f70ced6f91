"""Metrics, the fit on training rows that every command and harness shares,
and the cross-validated evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from birdnet.dataio import (
    VAL_FRACTION,
    LabeledDataset,
    Standardizer,
    apply_standardizer,
    preselect_and_standardize,
    stratified_holdout,
    stratified_kfold,
)
from birdnet.builder import ConstructionReport, build_birdnet
from birdnet.explain import RuleRecord, extract_rules
from birdnet.mining import MiningConfig
from birdnet.network import BirNetwork, active_param_count, to_matched_mlp
from birdnet.trainer import TrainConfig, TrainHistory, check_labels, softmax, train

__all__ = [
    "PipelineConfig",
    "FoldResult",
    "CVResult",
    "auroc_macro_ovr",
    "accuracy",
    "cross_validate",
    "holdout_rules_run",
    "attach_preprocessing",
    "apply_preprocessing",
    "Fit",
    "fit_on_rows",
]


@dataclass
class PipelineConfig:
    mining: MiningConfig = field(default_factory=MiningConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    folds: int = 5
    preselect_m: int | None = None  # None: auto (2000 when d > 2000)
    depth: int = 2
    head_hidden: int = 32
    seed: int = 42
    rule_min_support: int = 10

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.preselect_m is not None and self.preselect_m < 1:
            raise ValueError(f"preselect_m must be >= 1, got {self.preselect_m}")
        if self.depth < 0:  # depth 0 is a head-only network
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if self.head_hidden < 0:
            raise ValueError(f"head_hidden must be >= 0, got {self.head_hidden}")


def auroc_macro_ovr(scores: np.ndarray, labels: np.ndarray) -> tuple[float, list[int]]:
    """One-vs-rest macro AUROC with midrank tie handling.

    Scores are ranked per column, so they must be comparable across rows:
    probabilities, not raw logits (a shift shared by one row's logits moves
    that row's rank). Classes without both a positive and a negative are
    skipped; their indices are returned alongside the mean over evaluable
    classes. One label in 0..k-1 per row of the (rows, k) scores.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = check_labels(labels, *scores.shape)
    k = scores.shape[1]
    aucs = []
    skipped = []
    for c in range(k):
        pos = labels == c
        n_pos = int(pos.sum())
        n_neg = pos.shape[0] - n_pos
        if n_pos == 0 or n_neg == 0:
            skipped.append(c)
            continue
        # Midranks: a tied group at sorted positions a..b (1-based) gets (a+b)/2.
        _, inv, counts = np.unique(scores[:, c], return_inverse=True, return_counts=True)
        ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inv]
        auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
        aucs.append(auc)
    if not aucs:
        raise ValueError("no class with both positives and negatives")
    return float(np.mean(aucs)), skipped


def accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    """Argmax accuracy; ties resolve to the lowest class index. One label in
    0..k-1 per row of the (rows, k) scores."""
    scores = np.asarray(scores)
    labels = check_labels(labels, *scores.shape)
    return float((scores.argmax(axis=1) == labels).mean())


@dataclass
class FoldResult:
    fold: int
    auroc: float
    acc: float
    skipped_classes: list[int]
    accounting: dict[str, int]
    net: BirNetwork
    report: ConstructionReport
    history: TrainHistory  # per-epoch losses, best epoch, early stop


@dataclass
class CVResult:
    folds: list[FoldResult]
    matched_folds: list[FoldResult] | None = None

    @staticmethod
    def _agg(vals: list[float]) -> tuple[float, float]:
        a = np.asarray(vals)
        return float(a.mean()), float(a.std())  # population std across folds

    def summary(self) -> dict[str, float]:
        auroc_m, auroc_s = self._agg([f.auroc for f in self.folds])
        acc_m, acc_s = self._agg([f.acc for f in self.folds])
        out = {
            "auroc_mean": auroc_m,
            "auroc_std": auroc_s,
            "acc_mean": acc_m,
            "acc_std": acc_s,
        }
        for key in ("width", "bir_active", "total_active"):
            out[f"{key}_mean"] = float(np.mean([f.accounting[key] for f in self.folds]))
        if self.matched_folds is not None:
            m_auroc, _ = self._agg([f.auroc for f in self.matched_folds])
            m_acc, _ = self._agg([f.acc for f in self.matched_folds])
            out["matched_auroc_mean"] = m_auroc
            out["matched_acc_mean"] = m_acc
            matched_total = float(
                np.mean([f.accounting["total_active"] for f in self.matched_folds])
            )
            out["matched_total_active_mean"] = matched_total
            out["compression_ratio"] = matched_total / out["total_active_mean"]
        return out

    def to_csv(self) -> str:
        lines = ["fold,model,auroc,accuracy,width,bir_active,total_active"]

        def rows(folds, name):
            for f in folds:
                a = f.accounting
                lines.append(
                    f"{f.fold},{name},{f.auroc!r},{f.acc!r},"
                    f"{a['width']},{a['bir_active']},{a['total_active']}"
                )

        rows(self.folds, "birdnet")
        if self.matched_folds is not None:
            rows(self.matched_folds, "matched_mlp")
        s = self.summary()
        lines.append(f"mean,birdnet,{s['auroc_mean']!r},{s['acc_mean']!r},,,")
        lines.append(f"std,birdnet,{s['auroc_std']!r},{s['acc_std']!r},,,")
        if self.matched_folds is not None:
            lines.append(
                f"mean,matched_mlp,{s['matched_auroc_mean']!r},{s['matched_acc_mean']!r},,,"
            )
            lines.append(f"ratio,matched_over_birdnet,{s['compression_ratio']!r},,,,")
        return "\n".join(lines) + "\n"


def _fold_scores(logits: np.ndarray, labels: np.ndarray) -> tuple[float, list[int], float]:
    """Macro AUROC on softmax probabilities, its skipped classes, and accuracy."""
    auroc, skipped = auroc_macro_ovr(softmax(logits), labels)
    return auroc, skipped, accuracy(logits, labels)


def attach_preprocessing(net: BirNetwork, cols, std) -> None:
    """Record the selected input columns and the fitted standardizer in the
    model's meta, so a served row can be prepared as in training."""
    net.meta["standardizer"] = {
        "means": std.means.tolist(),
        "stddevs": std.stddevs.tolist(),
        "constant": std.constant.astype(int).tolist(),
    }
    net.meta["selected_features"] = [int(c) for c in cols]


def apply_preprocessing(net: BirNetwork, dataset: LabeledDataset, rows) -> np.ndarray:
    """The inverse of attach_preprocessing: the dataset's rows (indices) as the
    model's inputs. The recorded columns must exist and carry the model's feature
    names, or a ValueError names the first one that does not."""
    if "standardizer" not in net.meta:
        raise ValueError("model file lacks preprocessing metadata; re-train with this CLI")
    m, d = net.meta["standardizer"], net.input_dim
    try:
        cols = [int(c) for c in net.meta["selected_features"]]
        std = Standardizer(np.asarray(m["means"], dtype=np.float64),
                           np.asarray(m["stddevs"], dtype=np.float64),
                           np.asarray(m["constant"], dtype=bool))
        ok = len(cols) == d == len(std.means)
    except (KeyError, TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        ok = False
    if not ok:
        raise ValueError(f"model preprocessing metadata is not {d} columns and their standardizer")
    for i, (c, want) in enumerate(zip(cols, net.feature_names)):
        if not 0 <= c < dataset.d:
            raise ValueError(f"model input {i} reads data column {c}, "
                             f"but the data has {dataset.d} feature columns")
        if dataset.feature_names[c] != want:
            raise ValueError(f"model input {i} is feature {want!r} from data column {c}, "
                             f"but the data has {dataset.feature_names[c]!r} there")
    return apply_standardizer(std, dataset.values[np.ix_(rows, cols)])


@dataclass
class Fit:
    """A fit on training rows, as far as it went: the rows as model inputs,
    then the construction report and the networks with their histories."""

    X: np.ndarray  # the training rows: selected columns, standardized
    names: list[str]  # the selected columns' feature names
    report: ConstructionReport | None = None
    nets: list[BirNetwork] = field(default_factory=list)  # BIRDNet, then its matched MLP
    histories: list[TrainHistory] = field(default_factory=list)  # one per net, if trained


def fit_on_rows(
    dataset: LabeledDataset,
    cfg: PipelineConfig,
    rows: np.ndarray | None = None,
    val_mask: np.ndarray | None = None,
    until: str = "train",
    matched: bool = False,
) -> Fit:
    """The protocol's fit, on the training rows only: ANOVA F preselection,
    standardization, construction, then training with early stopping.

    rows: the training rows; None means every row, np.arange(dataset.n).
    val_mask: the early-stop rows among `rows`; None holds out a stratified
    VAL_FRACTION of them, drawn with seed cfg.seed + 1.
    until: "build" stops before training.
    matched: the dense matched MLP of the constructed network is trained too.
    Each network's meta records its preprocessing (attach_preprocessing).
    """
    if until not in ("build", "train"):
        raise ValueError(f"unknown stage {until!r}")
    # One row-major copy: its layout fixes the standardizer's rounding.
    rows = np.arange(dataset.n) if rows is None else rows
    y = dataset.labels[rows]
    X, cols, std = preselect_and_standardize(dataset.values[rows], y, cfg.preselect_m)
    fit = Fit(X, [dataset.feature_names[c] for c in cols])
    net, fit.report = build_birdnet(
        X, fit.names, dataset.class_names, cfg.mining,
        depth=cfg.depth, head_hidden=cfg.head_hidden, seed=cfg.seed,
    )
    fit.nets = [net, to_matched_mlp(net, seed=cfg.seed)] if matched else [net]
    if until == "train":
        if val_mask is None:
            val_mask = stratified_holdout(y, VAL_FRACTION, cfg.seed + 1)
        for net in fit.nets:
            _, history = train(net, X[~val_mask], y[~val_mask], X[val_mask], y[val_mask],
                               cfg.training)
            fit.histories.append(history)
    for net in fit.nets:
        net.meta["trained"] = until == "train"
        attach_preprocessing(net, cols, std)
    return fit


def cross_validate(
    dataset: LabeledDataset, cfg: PipelineConfig, include_matched: bool = False
) -> CVResult:
    """Stratified k-fold evaluation per the standard protocol: preselect,
    standardize, and mine on each training fold only; hold out a stratified
    15% of the training fold for early stopping; score on the test fold.
    The matched MLP of a fold is the dense copy of that fold's construction."""
    plan = stratified_kfold(dataset.labels, cfg.folds, cfg.seed)
    per_fold = [_run_fold(dataset, cfg, plan, f, include_matched) for f in range(cfg.folds)]
    return CVResult([r[0] for r in per_fold], [r[1] for r in per_fold] if include_matched else None)


def _run_fold(dataset: LabeledDataset, cfg: PipelineConfig, plan, f: int, matched: bool) -> list[FoldResult]:
    """Fold f's `FoldResult`s, BIRDNet's then its matched MLP's. The fit, the
    test rows and each forward's cache end here, before the next fold starts."""
    test_rows = np.flatnonzero(plan.fold_of_sample == f)
    train_rows = np.flatnonzero(plan.fold_of_sample != f)
    fit = fit_on_rows(dataset, cfg, train_rows, plan.val_mask[train_rows], matched=matched)
    X_test = apply_preprocessing(fit.nets[0], dataset, test_rows)  # the same for both nets
    out = []
    for net, history in zip(fit.nets, fit.histories):
        logits = net.forward(X_test, mode="eval")[0]
        auroc, skipped, acc = _fold_scores(logits, dataset.labels[test_rows])
        out.append(FoldResult(f, auroc, acc, skipped, active_param_count(net), net, fit.report, history))
    return out


def holdout_rules_run(
    dataset: LabeledDataset,
    cfg: PipelineConfig,
    test_fraction: float = 0.2,
) -> tuple[BirNetwork, list[RuleRecord], ConstructionReport]:
    """Single stratified split: train on (1 - test_fraction) of the data,
    estimate rule precision/recall/lift/support on the held-out remainder."""
    test_mask = stratified_holdout(dataset.labels, test_fraction, cfg.seed)
    fit = fit_on_rows(dataset, cfg, np.flatnonzero(~test_mask))
    net, test_rows = fit.nets[0], np.flatnonzero(test_mask)
    X_test = apply_preprocessing(net, dataset, test_rows)
    rules = extract_rules(net, X_test, dataset.labels[test_rows], cfg.rule_min_support)
    return net, rules, fit.report
