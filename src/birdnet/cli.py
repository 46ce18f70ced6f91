"""Command-line surface: mine | build | train | eval | rules | explain |
export-graph | matched-mlp.

Every command writes its artifacts into --out along with a manifest.json
recording the effective configuration, so any run can be reproduced from
its output directory alone. Values may come from a key=value config file
(--config); command-line flags override the file. An option that sets a
field of MiningConfig, TrainConfig or PipelineConfig defaults to that field's
default, and every command fits through evaluate.fit_on_rows.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields

import numpy as np

import birdnet
from birdnet.binarize import binarize, fit_binarization
from birdnet.dataio import load_csv
from birdnet.evaluate import (
    PipelineConfig,
    apply_preprocessing,
    cross_validate,
    fit_on_rows,
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
from birdnet.network import load_network, save_network
from birdnet.trainer import TrainConfig


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
    p.add_argument("--seed", type=int, default=PipelineConfig.seed)


def _add_data(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", required=True, help="CSV dataset path")
    p.add_argument("--label", required=True, help="label column name")
    p.add_argument("--id-column", default=None)
    p.add_argument("--drop-columns", default="", help="comma-separated columns to ignore")
    p.add_argument("--preselect", type=int, default=PipelineConfig.preselect_m,
                   help="ANOVA F preselection count (default: 2000 when d > 2000)")


def _add_fields(p: argparse.ArgumentParser, cls) -> None:
    """One option per field of a config dataclass, with its default and type;
    --seed is common to every command."""
    for f in fields(cls):
        if f.name != "seed":
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)


def _add_mining(p: argparse.ArgumentParser) -> None:
    _add_fields(p, MiningConfig)
    p.add_argument("--depth", type=int, default=PipelineConfig.depth)
    p.add_argument("--head-hidden", type=int, default=PipelineConfig.head_hidden)


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
    _add_common(p); _add_data(p); _add_mining(p); _add_fields(p, TrainConfig)

    p = sub.add_parser("eval", help="stratified cross-validated evaluation")
    _add_common(p); _add_data(p); _add_mining(p); _add_fields(p, TrainConfig)
    p.add_argument("--cv", type=int, default=PipelineConfig.folds, help="number of folds")
    p.add_argument("--matched", action="store_true", help="also run the dense MatchedMLP")

    p = sub.add_parser("matched-mlp", help="cross-validate the dense matched baseline")
    _add_common(p); _add_data(p); _add_mining(p); _add_fields(p, TrainConfig)
    p.add_argument("--cv", type=int, default=PipelineConfig.folds)

    p = sub.add_parser("rules", help="train on an 80/20 split and extract held-out rules")
    _add_common(p); _add_data(p); _add_mining(p); _add_fields(p, TrainConfig)
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--rule-min-support", type=int, default=PipelineConfig.rule_min_support)

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


# Options whose dest differs from the PipelineConfig field they set.
_FIELD_OF = {"cv": "folds", "preselect": "preselect_m"}


def _config(cls, args, **given):
    """A cls whose fields take the values of the options that set them."""
    names = {f.name for f in fields(cls)}
    values = {_FIELD_OF.get(k, k): v for k, v in vars(args).items()}
    return cls(**{k: v for k, v in values.items() if k in names}, **given)


def _pipeline_cfg(args) -> PipelineConfig:
    return _config(PipelineConfig, args, mining=_config(MiningConfig, args),
                   training=_config(TrainConfig, args))


def _write(args, name: str, text: str) -> None:
    with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_mine(args) -> int:
    ds = _load_dataset(args)
    cfg = _pipeline_cfg(args)
    fit = fit_on_rows(ds, cfg, until="standardize")
    model = fit_binarization(fit.X)
    graph = mine_birs(binarize(fit.X, model), cfg.mining, feature_names=fit.names)
    os.makedirs(args.out, exist_ok=True)
    _write(args, "edges.tsv", graph_to_tsv(graph))
    _write(args, "thresholds.tsv", model.to_text(fit.names))
    export_graph(graph, os.path.join(args.out, "graph.dot"))
    _manifest(args, args.out)
    print(f"mined {len(graph.edges)} edges over {len(fit.names)} features -> {args.out}")
    return 0


def cmd_fit(args) -> int:
    """`build`, and `train`: the fit of `rules` on every row, trained with
    the same stratified early-stop holdout."""
    trained = args.command == "train"
    fit = fit_on_rows(_load_dataset(args), _pipeline_cfg(args),
                      until="train" if trained else "build")
    net = fit.nets[0]
    os.makedirs(args.out, exist_ok=True)
    save_network(net, os.path.join(args.out, "model.json"))
    _write(args, "construction.txt", fit.report.to_text())
    if trained:
        history = fit.histories[0]
        _write(args, "history.csv", history.to_csv())
        done = f"trained for {len(history.train_loss)} epochs (best epoch {history.best_epoch})"
    else:
        done = f"built depth-{net.depth} network, widths {[b.linear.out_dim for b in net.blocks]}"
    _manifest(args, args.out)
    print(f"{done} -> {args.out}")
    return 0


def cmd_cv(args) -> int:
    """`eval`, and `matched-mlp`: cross-validation with the matched MLP."""
    include_matched = args.command == "matched-mlp" or args.matched
    result = cross_validate(_load_dataset(args), _pipeline_cfg(args), include_matched)
    os.makedirs(args.out, exist_ok=True)
    _write(args, "metrics.csv", result.to_csv())
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


def cmd_rules(args) -> int:
    ds = _load_dataset(args)
    net, rules, report = holdout_rules_run(ds, _pipeline_cfg(args), test_fraction=args.test_fraction)
    os.makedirs(args.out, exist_ok=True)
    _write(args, "rules.csv", rules_to_csv(rules))
    save_network(net, os.path.join(args.out, "model.json"))
    _write(args, "construction.txt", report.to_text())
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
    _write(args, f"trace_{args.instance}.txt", trace.to_text())
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
    "build": cmd_fit,
    "train": cmd_fit,
    "eval": cmd_cv,
    "matched-mlp": cmd_cv,
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
