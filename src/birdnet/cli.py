"""Command-line surface: mine | build | train | eval | rules | explain |
export-graph | matched-mlp.

Every command writes its artifacts into --out along with a manifest.json
recording the effective configuration, so any run can be reproduced from
its output directory alone. Values may come from a key=value config file
(--config); command-line flags override the file.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

import birdnet
from birdnet.binarize import binarize, fit_binarization
from birdnet.builder import build_birdnet
from birdnet.dataio import (
    fit_standardizer,
    load_csv,
    preselect_features,
    stratified_holdout,
)
from birdnet.evaluate import (
    PipelineConfig,
    apply_preprocessing,
    attach_preprocessing,
    cross_validate,
    holdout_rules_run,
)
from birdnet.explain import lrp_explain, rules_to_csv
from birdnet.mining import (
    MiningConfig,
    export_graph,
    graph_to_tsv,
    mine_birs,
    read_graph_tsv,
)
from birdnet.network import load_network, save_network, to_matched_mlp
from birdnet.trainer import TrainConfig, train


def _read_config_file(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=42)


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--label", required=True, help="label column name")
    p.add_argument("--id-column", default=None)
    p.add_argument("--drop-columns", default="", help="comma-separated columns to ignore")
    p.add_argument("--preselect", type=int, default=None,
                   help="ANOVA F preselection count (default: 2000 when d > 2000)")


def _add_mining(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p-star", type=float, default=1e-6)
    p.add_argument("--pi", type=float, default=0.05)
    p.add_argument("--h-max", type=int, default=5000)
    p.add_argument("--mu", type=int, default=10)
    p.add_argument("--min-support", type=int, default=5)
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--head-hidden", type=int, default=32)


def _add_training(p: argparse.ArgumentParser) -> None:
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=1e-4)
    p.add_argument("--epochs-max", type=int, default=200)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--patience", type=int, default=20)
    p.add_argument("--clip-norm", type=float, default=1.0)
    p.add_argument("--dropout", type=float, default=0.3)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birdnet",
        description="Mine Boolean implications, train implication-structured "
        "networks, and extract rules and explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine the implication graph from a CSV")
    _add_common(p); _add_data(p); _add_mining(p)

    p = sub.add_parser("build", help="construct an untrained network")
    _add_common(p); _add_data(p); _add_mining(p)

    p = sub.add_parser("train", help="build and train on the full dataset "
                       "(15%% stratified early-stop holdout)")
    _add_common(p); _add_data(p); _add_mining(p); _add_training(p)

    p = sub.add_parser("eval", help="stratified cross-validated evaluation")
    _add_common(p); _add_data(p); _add_mining(p); _add_training(p)
    p.add_argument("--cv", type=int, default=5, help="number of folds")
    p.add_argument("--matched", action="store_true", help="also run the dense MatchedMLP")

    p = sub.add_parser("matched-mlp", help="cross-validate the dense matched baseline")
    _add_common(p); _add_data(p); _add_mining(p); _add_training(p)
    p.add_argument("--cv", type=int, default=5)

    p = sub.add_parser("rules", help="train on an 80/20 split and extract held-out rules")
    _add_common(p); _add_data(p); _add_mining(p); _add_training(p)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--rule-min-support", type=int, default=10)

    p = sub.add_parser("explain", help="per-instance relevance trace")
    _add_common(p)
    p.add_argument("--model", required=True, help="serialized model file")
    p.add_argument("--data", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--id-column", default=None)
    p.add_argument("--drop-columns", default="")
    p.add_argument("--instance", type=int, required=True, help="row index in the CSV")
    p.add_argument("--class", dest="target_class", default=None,
                   help="class name to explain (default: the prediction)")

    p = sub.add_parser("export-graph", help="convert an edge list TSV to DOT")
    _add_common(p)
    p.add_argument("--edges", required=True, help="edge list TSV from `mine`")

    return parser


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _config_defaults(command: argparse.ArgumentParser, path: str) -> dict:
    """The config file's values for the command's options, each converted by
    the option's own argparse type; other keys are ignored."""
    actions = {a.dest: a for a in command._actions if a.dest not in ("help", "config")}
    out = {}
    for key, raw in _read_config_file(path).items():
        action = actions.get(key)
        if action is None:
            continue
        try:
            if action.nargs == 0:  # a store_true flag
                out[key] = _FLAG_VALUES[raw.lower()]
            else:
                out[key] = action.type(raw) if action.type else raw
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"{path}: {key} = {raw!r} is not a valid value") from None
    return out


def _manifest(args: argparse.Namespace, outdir: str) -> None:
    record = {k: v for k, v in vars(args).items() if k != "func"}
    record["version"] = birdnet.__version__
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)


def _load_dataset(args):
    drop = tuple(c for c in args.drop_columns.split(",") if c) if args.drop_columns else ()
    ds = load_csv(args.data, args.label, id_column=args.id_column, drop_columns=drop)
    if ds.n_rejected_rows:
        print(f"rejected {ds.n_rejected_rows} rows with non-finite values", file=sys.stderr)
    return ds


def _mining_cfg(args) -> MiningConfig:
    return MiningConfig(
        p_star=args.p_star, pi=args.pi, h_max=args.h_max, mu=args.mu,
        min_support=args.min_support,
    )


def _train_cfg(args) -> TrainConfig:
    return TrainConfig(
        learning_rate=args.learning_rate, weight_decay=args.weight_decay,
        epochs_max=args.epochs_max, batch_size=args.batch_size,
        patience=args.patience, clip_norm=args.clip_norm,
        dropout=args.dropout, seed=args.seed,
    )


def _pipeline_cfg(args, folds: int | None = None) -> PipelineConfig:
    return PipelineConfig(
        mining=_mining_cfg(args),
        training=_train_cfg(args),
        folds=folds if folds is not None else getattr(args, "cv", 5),
        preselect_m=args.preselect,
        depth=args.depth,
        head_hidden=args.head_hidden,
        seed=args.seed,
        rule_min_support=getattr(args, "rule_min_support", 10),
    )


def _preselect_and_standardize(ds, args):
    cols = preselect_features(ds, args.preselect)
    X = ds.values[:, cols]  # one copy, standardized in place
    std = fit_standardizer(X)
    X -= std.means
    X /= std.stddevs
    names = [ds.feature_names[c] for c in cols]
    return X, names, cols, std


def cmd_mine(args) -> int:
    ds = _load_dataset(args)
    X, names, _, _ = _preselect_and_standardize(ds, args)
    model = fit_binarization(X)
    bmat = binarize(X, model)
    graph = mine_birs(bmat, _mining_cfg(args), feature_names=names)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "edges.tsv"), "w", encoding="utf-8") as fh:
        fh.write(graph_to_tsv(graph))
    with open(os.path.join(args.out, "thresholds.tsv"), "w", encoding="utf-8") as fh:
        fh.write(model.to_text(names))
    export_graph(graph, os.path.join(args.out, "graph.dot"))
    _manifest(args, args.out)
    print(f"mined {len(graph.edges)} edges over {len(names)} features -> {args.out}")
    return 0


def cmd_build(args) -> int:
    ds = _load_dataset(args)
    X, names, cols, std = _preselect_and_standardize(ds, args)
    net, report = build_birdnet(
        X, names, ds.class_names, _mining_cfg(args), depth=args.depth,
        head_hidden=args.head_hidden, seed=args.seed,
    )
    net.meta["trained"] = False
    attach_preprocessing(net, cols, std)
    os.makedirs(args.out, exist_ok=True)
    save_network(net, os.path.join(args.out, "model.json"))
    with open(os.path.join(args.out, "construction.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    _manifest(args, args.out)
    print(f"built depth-{net.depth} network, widths "
          f"{[b.linear.out_dim for b in net.blocks]} -> {args.out}")
    return 0


def cmd_train(args) -> int:
    ds = _load_dataset(args)
    X, names, cols, std = _preselect_and_standardize(ds, args)
    net, report = build_birdnet(
        X, names, ds.class_names, _mining_cfg(args), depth=args.depth,
        head_hidden=args.head_hidden, seed=args.seed,
    )
    val = stratified_holdout(ds.labels, 0.15, args.seed + 1)
    net, history = train(net, X[~val], ds.labels[~val], X[val], ds.labels[val],
                         _train_cfg(args))
    net.meta["trained"] = True
    attach_preprocessing(net, cols, std)
    os.makedirs(args.out, exist_ok=True)
    save_network(net, os.path.join(args.out, "model.json"))
    with open(os.path.join(args.out, "history.csv"), "w", encoding="utf-8") as fh:
        fh.write(history.to_csv())
    with open(os.path.join(args.out, "construction.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    _manifest(args, args.out)
    print(f"trained for {len(history.train_loss)} epochs "
          f"(best epoch {history.best_epoch}) -> {args.out}")
    return 0


def _run_cv(args, matched_only: bool) -> int:
    ds = _load_dataset(args)
    cfg = _pipeline_cfg(args)
    include_matched = matched_only or getattr(args, "matched", False)
    result = cross_validate(ds, cfg, include_matched=include_matched)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(result.to_csv())
    for fr in result.folds:
        save_network(fr.net, os.path.join(args.out, f"model_fold{fr.fold}.json"))
    _manifest(args, args.out)
    s = result.summary()
    print(f"AUROC {s['auroc_mean']:.4f} +- {s['auroc_std']:.4f}, "
          f"accuracy {s['acc_mean']:.4f} +- {s['acc_std']:.4f} -> {args.out}")
    if include_matched:
        print(f"matched MLP: AUROC {s['matched_auroc_mean']:.4f}, "
              f"accuracy {s['matched_acc_mean']:.4f}, "
              f"active-parameter ratio {s['compression_ratio']:.1f}x")
    return 0


def cmd_eval(args) -> int:
    return _run_cv(args, matched_only=False)


def cmd_matched_mlp(args) -> int:
    return _run_cv(args, matched_only=True)


def cmd_rules(args) -> int:
    ds = _load_dataset(args)
    cfg = _pipeline_cfg(args, folds=5)
    net, rules, report = holdout_rules_run(ds, cfg, test_fraction=args.test_fraction)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "rules.csv"), "w", encoding="utf-8") as fh:
        fh.write(rules_to_csv(rules))
    save_network(net, os.path.join(args.out, "model.json"))
    with open(os.path.join(args.out, "construction.txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    _manifest(args, args.out)
    print(f"extracted {len(rules)} (unit, class) rules -> {args.out}")
    return 0


def cmd_explain(args) -> int:
    net = load_network(args.model)
    ds = _load_dataset(args)
    if not 0 <= args.instance < ds.n:
        raise ValueError(f"--instance {args.instance} is out of range: the data has rows 0..{ds.n - 1}")
    x = apply_preprocessing(net, ds, [args.instance])[0]
    if args.target_class is None:
        logits, _ = net.forward(x.reshape(1, -1), mode="eval")
        target = int(np.argmax(logits[0]))
    else:
        if args.target_class not in net.class_names:
            raise ValueError(
                f"unknown class {args.target_class!r}; model has {net.class_names}"
            )
        target = net.class_names.index(args.target_class)
    trace = lrp_explain(net, x, target, instance_id=ds.sample_ids[args.instance])
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"trace_{args.instance}.txt")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(trace.to_text())
    _manifest(args, args.out)
    print(trace.to_text())
    return 0


def cmd_export_graph(args) -> int:
    with open(args.edges, encoding="utf-8") as fh:
        graph = read_graph_tsv(fh.read())
    os.makedirs(args.out, exist_ok=True)
    export_graph(graph, os.path.join(args.out, "graph.dot"))
    _manifest(args, args.out)
    print(f"wrote DOT with {len(graph.edges)} edges -> {args.out}")
    return 0


_COMMANDS = {
    "mine": cmd_mine,
    "build": cmd_build,
    "train": cmd_train,
    "eval": cmd_eval,
    "matched-mlp": cmd_matched_mlp,
    "rules": cmd_rules,
    "explain": cmd_explain,
    "export-graph": cmd_export_graph,
}


@functools.cache
def _parser_and_commands() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its per-command subparsers, built once per process: a
    parser is a web of reference cycles, so one per call would leave garbage
    that only a full collection frees."""
    parser = build_parser()
    return parser, parser._subparsers._group_actions[0].choices  # type: ignore[union-attr]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed over the values of its --config file. A file value counts
    as given, so it can supply a required option; a flag on the command line
    replaces it, even a flag set to its default."""
    parser, commands = _parser_and_commands()
    command = commands.get(argv[0]) if argv else None
    config = None
    if command is not None:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        config = pre.parse_known_args(argv[1:])[0].config
    if config is None:
        return parser.parse_args(argv)
    values = _config_defaults(command, config)
    supplied = [a for a in command._actions if a.required and a.dest in values]
    for action in supplied:
        action.required = False
    try:
        # An option already set in the namespace takes no parser default,
        # so only a flag on the command line replaces a file value.
        return command.parse_args(argv[1:], argparse.Namespace(command=argv[0], **values))
    finally:
        for action in supplied:
            action.required = True


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
