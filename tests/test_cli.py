import base64
import json
import os
import subprocess
import sys
from dataclasses import MISSING, fields

import numpy as np
import pytest

import birdnet
from birdnet.cli import build_parser, main
from birdnet.dataio import load_csv, stratified_holdout
from birdnet.evaluate import PipelineConfig, fit_on_rows
from birdnet.mining import MiningConfig
from birdnet.network import load_network
from birdnet.trainer import TrainConfig
from helpers import planted_pair_data, write_csv


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    X, y = planted_pair_data(rng, n=200, n_noise=4)
    path = tmp_path / "data.csv"
    write_csv(str(path), X, y, id_col=True)
    return str(path)


def run(argv):
    return main(argv)


BASE = ["--label", "diagnosis", "--id-column", "sample"]


def _edited(doc, keys, value):
    """A copy of a JSON document with the entry at the path `keys` set to value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return doc


@pytest.fixture
def built_model(data_csv, tmp_path):
    out = tmp_path / "built"
    assert run(["build", "--data", data_csv, *BASE, "--out", str(out),
                "--mu", "1", "--depth", "1"]) == 0
    return str(out / "model.json")


@pytest.fixture
def trained_model(data_csv, tmp_path):
    out = tmp_path / "trained"
    assert run(["train", "--data", data_csv, *BASE, "--out", str(out), "--mu", "1",
                "--depth", "1", "--epochs-max", "10", "--batch-size", "32"]) == 0
    return str(out / "model.json")


class TestMine:
    def test_outputs(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["mine", "--data", data_csv, *BASE, "--out", str(out)]) == 0
        assert (out / "edges.tsv").exists()
        assert (out / "thresholds.tsv").exists()
        assert (out / "graph.dot").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "mine"
        assert "version" in manifest
        edges = (out / "edges.tsv").read_text().strip().split("\n")
        assert edges[0].startswith("source\ttarget\ttype")
        assert len(edges) >= 2  # planted pair found
        assert "mined" in capsys.readouterr().out

    def test_deterministic_output(self, data_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run(["mine", "--data", data_csv, *BASE, "--out", str(out)])
            outs.append((out / "edges.tsv").read_bytes())
        assert outs[0] == outs[1]


class TestBuildAndTrain:
    def test_build(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["build", "--data", data_csv, *BASE, "--out", str(out),
                    "--mu", "1", "--depth", "1"]) == 0
        net = load_network(str(out / "model.json"))
        assert net.meta["trained"] is False
        assert "standardizer" in net.meta
        assert (out / "construction.txt").read_text().startswith("layer\t")

    def test_train_and_explain(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["train", "--data", data_csv, *BASE, "--out", str(out),
                    "--mu", "1", "--depth", "1", "--epochs-max", "10",
                    "--batch-size", "32"]) == 0
        model = out / "model.json"
        net = load_network(str(model))
        assert net.meta["trained"] is True
        hist = (out / "history.csv").read_text().strip().split("\n")
        assert hist[0] == "epoch,train_loss,val_loss,val_acc"
        assert 2 <= len(hist) <= 11
        capsys.readouterr()
        exp_out = tmp_path / "explain"
        assert run(["explain", "--model", str(model), "--data", data_csv,
                    "--label", "diagnosis", "--id-column", "sample",
                    "--instance", "3", "--out", str(exp_out)]) == 0
        text = (exp_out / "trace_3.txt").read_text()
        assert text.startswith("instance s3")
        assert "class =" in text
        assert run(["explain", "--model", str(model), "--data", data_csv,
                    "--label", "diagnosis", "--id-column", "sample",
                    "--instance", "3", "--class", "nope",
                    "--out", str(exp_out)]) == 2

    def test_train_is_the_holdout_fit_on_all_rows(self, data_csv, trained_model):
        # `train` fits as `rules` does on its training rows: early stopping on
        # a stratified 15% holdout drawn with seed + 1.
        ds = load_csv(data_csv, "diagnosis", id_column="sample")
        cfg = PipelineConfig(mining=MiningConfig(mu=1), depth=1,
                             training=TrainConfig(epochs_max=10, batch_size=32))
        want = fit_on_rows(ds, cfg, val_mask=stratified_holdout(ds.labels, 0.15, 43)).nets[0]
        got = load_network(trained_model).snapshot()
        assert all(np.array_equal(got[k], v) for k, v in want.snapshot().items())


class TestEval:
    def test_eval_writes_metrics_and_models(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["eval", "--data", data_csv, *BASE, "--out", str(out),
                    "--mu", "1", "--depth", "1", "--cv", "3",
                    "--epochs-max", "8", "--batch-size", "32"]) == 0
        lines = (out / "metrics.csv").read_text().strip().split("\n")
        assert lines[0] == "fold,model,auroc,accuracy,width,bir_active,total_active"
        for f in range(3):
            assert (out / f"model_fold{f}.json").exists()

    def test_matched_mlp_command(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["matched-mlp", "--data", data_csv, *BASE, "--out", str(out),
                    "--mu", "1", "--depth", "1", "--cv", "3",
                    "--epochs-max", "5", "--batch-size", "32"]) == 0
        assert "matched MLP" in capsys.readouterr().out
        assert "matched_mlp" in (out / "metrics.csv").read_text()


class TestRules:
    def test_rules_csv(self, data_csv, tmp_path):
        out = tmp_path / "out"
        assert run(["rules", "--data", data_csv, *BASE, "--out", str(out),
                    "--mu", "1", "--depth", "1", "--epochs-max", "8",
                    "--batch-size", "32", "--rule-min-support", "5"]) == 0
        lines = (out / "rules.csv").read_text().strip().split("\n")
        assert lines[0] == "class,rule,precision,recall,lift,support,unit"
        assert len(lines) >= 2


class TestExportGraph:
    def test_round_trip(self, data_csv, tmp_path):
        mine_out = tmp_path / "mine"
        run(["mine", "--data", data_csv, *BASE, "--out", str(mine_out)])
        out = tmp_path / "dot"
        assert run(["export-graph", "--edges", str(mine_out / "edges.tsv"),
                    "--out", str(out)]) == 0
        assert (out / "graph.dot").read_text().startswith("digraph")

        # The edge list carries no isolated features and numbers vertices by
        # first appearance, so only the edge lines match mine's own DOT.
        def edge_lines(path):
            return [ln for ln in path.read_text().splitlines() if " -> " in ln]

        mined = edge_lines(mine_out / "graph.dot")
        assert mined and edge_lines(out / "graph.dot") == mined

    @pytest.mark.parametrize("cell, value", [(2, "T9"), (4, "many"), (6, None)])
    def test_malformed_edge_list_exits_2_naming_the_line(self, data_csv, tmp_path, capsys,
                                                         cell, value):
        mine_out = tmp_path / "mine"
        run(["mine", "--data", data_csv, *BASE, "--out", str(mine_out)])
        lines = (mine_out / "edges.tsv").read_text().split("\n")
        cells = lines[1].split("\t")  # the first edge, spoilt and added as line 3
        if value is None:
            del cells[cell]
        else:
            cells[cell] = value
        lines[1:2] = [lines[1], "\t".join(cells)]
        edges = tmp_path / "bad.tsv"
        edges.write_text("\n".join(lines))
        capsys.readouterr()
        assert run(["export-graph", "--edges", str(edges), "--out", str(tmp_path / "o")]) == 2
        assert "error: edge list line 3: " in capsys.readouterr().err


class TestDataErrors:
    """Each way a CSV can fail to load exits 2 with the reason on stderr."""

    @pytest.mark.parametrize("text, message", [
        ("g0,g1,label\n1,2,a\n3,oops,b\n", "non-numeric value 'oops' at row 3, column 'g1'"),
        ("g0,g1,label\n1,2,a\n3,b\n", "row 3 has 2 cells, header has 3"),
        ("g0,g1,label\n1,2,a\n3,4,5,b\n", "row 3 has 4 cells, header has 3"),
        ("g0,g1,label\n1,2,a\n3,4, \n", "missing label at row 3"),
        ("", "empty file, expected a header row"),
        ("g0,g1,label\n", "no usable data rows"),
        ("g0,g1,label\nnan,1,a\n2,inf,b\n", "no usable data rows, all 2 have non-finite values"),
        ("id,g,g,label\ns1,1,2,a\n", "duplicate column names ['g'] in header"),
    ], ids=["cell", "short-row", "long-row", "missing-label", "empty", "header-only",
            "all-non-finite", "duplicate-names"])
    def test_exits_2_naming_the_cause(self, tmp_path, capsys, text, message):
        data = tmp_path / "bad.csv"
        data.write_text(text)
        assert run(["mine", "--data", str(data), "--label", "label",
                    "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_rejected_row_count_on_stderr(self, data_csv, tmp_path, capsys):
        with open(data_csv, encoding="utf-8") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()]
        rows[3][1], rows[7][2] = "nan", "-inf"  # column 0 is the sample id
        data = tmp_path / "some_nan.csv"
        data.write_text("".join(",".join(r) + "\n" for r in rows))
        capsys.readouterr()
        assert run(["mine", "--data", str(data), *BASE, "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == "rejected 2 rows with non-finite values\n"


class TestConfigAndErrors:
    def test_config_file_fills_defaults_flags_win(self, data_csv, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("# mining settings\nmu = 1\ndepth = 1\np-star = 1e-4\n")
        out = tmp_path / "out"
        assert run(["build", "--data", data_csv, *BASE, "--out", str(out),
                    "--config", str(cfg), "--p-star", "1e-8"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mu"] == 1  # from file
        assert manifest["depth"] == 1  # from file
        assert manifest["p_star"] == 1e-8  # non-default flag beats file

    def test_explicit_flag_at_its_default_beats_file(self, data_csv, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("mu = 1\ndepth = 1\nseed = 7\n")
        out = tmp_path / "out"
        assert run(["build", "--data", data_csv, *BASE, "--out", str(out),
                    "--config", str(cfg), "--seed", "42"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 42 and manifest["mu"] == 1

    def test_file_values_take_the_option_type(self, data_csv, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("preselect = 4\nmatched = yes\n")
        out = tmp_path / "out"
        assert run(["mine", "--data", data_csv, *BASE, "--out", str(out),
                    "--config", str(cfg)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["preselect"] == 4  # an int, as --preselect 4 gives
        assert "matched" not in manifest  # not an option of `mine`: ignored

    def test_config_file_supplies_required_options(self, data_csv, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"data = {data_csv}\nlabel = diagnosis\nid-column = sample\n")
        out = tmp_path / "out"
        assert run(["mine", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["data"], manifest["label"]) == (data_csv, "diagnosis")

    def test_required_flag_beats_file(self, data_csv, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(f"data = {tmp_path / 'missing.csv'}\nlabel = nope\n")
        out = tmp_path / "out"
        assert run(["mine", "--config", str(cfg), "--data", data_csv, *BASE,
                    "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["data"] == data_csv

    def test_required_option_missing_from_flags_and_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("label = diagnosis\n")
        with pytest.raises(SystemExit) as exc:
            run(["mine", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "the following arguments are required: --data" in capsys.readouterr().err
        with pytest.raises(SystemExit):  # the file's value made --label optional for one parse only
            run(["mine", "--data", "x.csv"])

    @pytest.mark.parametrize("line", ["preselect = four", "pi = 0.1.2", "matched = perhaps"])
    def test_bad_file_value_exits_2_naming_the_key(self, data_csv, tmp_path, capsys, line):
        cfg = tmp_path / "run.conf"
        cfg.write_text(line + "\n")
        assert run(["eval", "--data", data_csv, *BASE, "--out", str(tmp_path / "o"),
                    "--config", str(cfg)]) == 2
        assert line.split(" =")[0] + " = " in capsys.readouterr().err

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        assert run(["mine", "--data", str(tmp_path / "no.csv"),
                    "--label", "y", "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_label_column_exits_2(self, data_csv, tmp_path, capsys):
        assert run(["mine", "--data", data_csv, "--label", "nope",
                    "--out", str(tmp_path / "o")]) == 2
        assert "label column" in capsys.readouterr().err

    def test_invalid_mining_parameter_exits_2(self, data_csv, tmp_path, capsys):
        assert run(["mine", "--data", data_csv, *BASE,
                    "--out", str(tmp_path / "o"), "--pi", "0.7"]) == 2
        assert "pi" in capsys.readouterr().err

    def test_malformed_model_exits_2(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["build", "--data", data_csv, *BASE, "--out", str(out),
                    "--mu", "1", "--depth", "1"]) == 0
        model = out / "model.json"
        doc = json.loads(model.read_text())
        W = doc["head"][0]["W"]  # the head now reads twice the block's width
        W["data"] = base64.b64encode(base64.b64decode(W["data"]) * 2).decode("ascii")
        W["shape"][1] *= 2
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["explain", "--model", str(model), "--data", data_csv, *BASE,
                    "--instance", "0", "--out", str(tmp_path / "e")]) == 2
        assert "do not chain" in capsys.readouterr().err

    @pytest.mark.parametrize("spoil, message", [
        (lambda doc: {**doc, "class_names": doc["class_names"][:1]},
         "class_names is not a list of 2 names"),
        (lambda doc: {**doc, "feature_names": doc["feature_names"][:2]},
         "feature_names is not a list of 6 names"),
        (lambda doc: {**doc, "meta": 5}, "meta is not a JSON object"),
        (lambda doc: [], "not a recognized model file"),
        (lambda doc: {**doc, "input_dim": "6"}, "input_dim is not a positive integer"),
        (lambda doc: {**doc, "head": []}, "the head has no layer"),
        (lambda doc: {**doc, "meta": {**doc["meta"], "standardizer": 5}},
         "model preprocessing metadata is not 6 columns and their standardizer"),
        (lambda doc: {**doc, "meta": {**doc["meta"], "selected_features": [0, 1]}},
         "model preprocessing metadata is not 6 columns and their standardizer"),
        (lambda doc: {**doc, "blocks": 5}, "spoilt.json: blocks and head are not both lists"),
        (lambda doc: {**doc, "blocks": [5]}, "spoilt.json: block 0 is not a pair or dense block"),
        (lambda doc: {**doc, "head": [5]}, "spoilt.json: head layer 0 W is not an encoded array"),
        (lambda doc: _edited(doc, ("blocks", 0, "bn", "gamma"), 3),
         "spoilt.json: block 0 BatchNorm gamma is not an encoded array"),
        (lambda doc: _edited(doc, ("blocks", 0, "linear", "w_src", "dtype"), "<zz"),
         "spoilt.json: block 0 linear w_src is not an encoded array"),
        (lambda doc: _edited(doc, ("blocks", 0, "kind"), "xx"),
         "spoilt.json: block 0 is not a pair or dense block"),
        (lambda doc: {**doc, "input_dim": True}, "spoilt.json: input_dim is not a positive integer"),
    ], ids=["one-class-name", "two-feature-names", "meta-not-object", "top-level-list",
            "input-dim-text", "no-head", "standardizer-not-object", "two-columns",
            "blocks-not-list", "block-not-object", "head-layer-not-object", "gamma-not-array",
            "unknown-dtype", "unknown-kind", "input-dim-true"])
    def test_model_with_bad_metadata_exits_2(self, data_csv, trained_model, tmp_path, capsys,
                                             spoil, message):
        with open(trained_model, encoding="utf-8") as fh:
            doc = spoil(json.load(fh))
        model = tmp_path / "spoilt.json"
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        for instance in ("0", "5"):
            assert run(["explain", "--model", str(model), "--data", data_csv, *BASE,
                        "--instance", instance, "--out", str(tmp_path / "e")]) == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--epochs-max", "0"], "epochs_max must be >= 1"),
        (["train", "--clip-norm", "0"], "clip_norm must be > 0"),
        (["mine", "--h-max", "-2"], "h_max must be >= 1, got -2"),
        (["mine", "--preselect", "-2"], "requested m=-2 features"),
    ], ids=["epochs-max", "clip-norm", "h-max", "preselect"])
    def test_bad_count_setting_exits_2(self, data_csv, tmp_path, capsys, argv, message):
        capsys.readouterr()
        assert run([*argv, "--data", data_csv, *BASE, "--mu", "1",
                    "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_explain_v3_model_exits_2(self, data_csv, built_model, tmp_path, capsys):
        with open(built_model, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["format"] = "birdnet-model-v3"
        old = tmp_path / "v3.json"
        old.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["explain", "--model", str(old), "--data", data_csv, *BASE,
                    "--instance", "0", "--out", str(tmp_path / "e")]) == 2
        assert "rebuild the model" in capsys.readouterr().err

    def test_explain_instance_past_last_row_exits_2(self, data_csv, built_model, tmp_path, capsys):
        capsys.readouterr()
        assert run(["explain", "--model", built_model, "--data", data_csv, *BASE,
                    "--instance", "200", "--out", str(tmp_path / "e")]) == 2
        assert "rows 0..199" in capsys.readouterr().err

    @staticmethod
    def _rewrite_columns(src, dst, order):
        """Copy a CSV keeping the cells of each line at the positions in order."""
        with open(src, encoding="utf-8") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()]
        dst.write_text("\n".join(",".join(r[i] for i in order) for r in rows) + "\n")

    @pytest.mark.parametrize("order, message", [
        ([0, 1, 2, 3, 7], "model input 3 reads data column 3, but the data has 3 feature columns"),
        ([0, 1, 3, 2, 4, 5, 6, 7], "model input 1 is feature 'g1' from data column 1, "
                                   "but the data has 'g2' there"),
    ], ids=["narrower", "swapped"])
    def test_explain_csv_unlike_the_model_exits_2(self, data_csv, built_model, tmp_path, capsys,
                                                 order, message):
        # Columns sample, g0..g5, diagnosis; the model reads g0..g5 by position.
        other = tmp_path / "other.csv"
        self._rewrite_columns(data_csv, other, order)
        capsys.readouterr()
        assert run(["explain", "--model", built_model, "--data", str(other), *BASE,
                    "--instance", "0", "--out", str(tmp_path / "e")]) == 2
        assert message in capsys.readouterr().err

    def test_explain_negative_instance_exits_2(self, data_csv, built_model, tmp_path, capsys):
        capsys.readouterr()
        assert run(["explain", "--model", built_model, "--data", data_csv, *BASE,
                    "--instance", "-1", "--out", str(tmp_path / "e")]) == 2
        assert "rows 0..199" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()


def test_config_backed_options_default_to_their_fields():
    # An option sets the config field of its dest; --cv and --preselect are
    # the two whose dest is not the field's name.
    field_of = {"cv": "folds", "preselect": "preselect_m"}
    defaults = {f.name: f.default for cls in (MiningConfig, TrainConfig, PipelineConfig)
                for f in fields(cls) if f.default is not MISSING}
    commands = build_parser()._subparsers._group_actions[0].choices
    backed = {}
    for name, command in commands.items():
        for action in command._actions:
            key = field_of.get(action.dest, action.dest)
            if key in defaults:
                assert action.default == defaults[key], (name, action.dest)
                assert action.type is type(defaults[key]) or defaults[key] is None
                backed.setdefault(name, set()).add(key)
    every_field = {f.name for cls in (MiningConfig, TrainConfig) for f in fields(cls)}
    for name in ("train", "eval", "matched-mlp", "rules"):
        assert every_field <= backed[name], name
    assert backed["rules"] >= {"rule_min_support", "depth", "head_hidden", "preselect_m"}
    assert backed["eval"] >= {"folds"} and backed["explain"] == {"seed"}


def _run_python(*args):
    """Run python with this checkout's birdnet first on the path."""
    src = os.path.dirname(os.path.dirname(birdnet.__file__))
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def test_serving_and_cli_imports_load_no_scipy():
    # The runtime dependencies are numpy alone; scipy stays a benchmark extra.
    code = ("import sys, birdnet, birdnet.cli, birdnet.evaluate, birdnet.explain; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = _run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_synthetic_demo_script_runs():
    # The README's quick start: mine, train, cross-validate, rules and a trace.
    script = os.path.join(os.path.dirname(__file__), "..", "scripts", "run_synthetic_demo.py")
    done = _run_python(script, "--seed", "42")
    assert done.returncode == 0, done.stderr
    out = done.stdout.rstrip().splitlines()
    assert out[0].startswith("AUROC ")
    rules = out[out.index("top rules on the holdout:") + 1 :]
    assert rules[0].startswith("  [") and "g0 -> g1  precision=" in "\n".join(rules)
    assert any(line.startswith("instance s") for line in out)
    assert any("~>  class = pos" in line for line in out)
    assert out[-1].startswith("sum of layer-0 relevances: ")
