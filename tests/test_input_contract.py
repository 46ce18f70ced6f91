"""The input contract of the files birdnet reads: a model file, read by
`birdnet explain`, a mined edge list, read by `birdnet export-graph`, and a
CSV, read by `birdnet explain`, `birdnet mine` and `birdnet build`.

A spoil changes one JSON node of a trained depth-2 model (to a value of
`VALUES`, or deletes it), or one cell of a mined `edges.tsv` or of the CSV (to
a value's JSON text, or deletes it). Every spoilt run through `cli.main` must
either exit 0 with finite output, or exit 2 with an error that names the file
(or, for a CSV whose columns do not fit the model, the model); none may raise
or warn. An edge list that exits 0, read or mined, must also
hold the edge-row rule, as `_valid_edge_line` reads it. A seeded sample of the
spoils runs each time; every spoil of the explained row runs through `explain`,
and every `1e+308` feature cell of that row through `build`.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import warnings

import numpy as np
import pytest

from birdnet.cli import main
from helpers import write_csv

# One value of each JSON kind, the ends of the float range and a count past int64.
VALUES = [None, "x", -1, 0, 1e308, math.nan, [], {}, True, -math.inf, 10**20]
DELETE = "<deleted>"
MODEL_SPOILS = 300  # of 2,580
EDGE_SPOILS = 200  # of 1,596
# Of the 14,400 outside the explained row (explain), of all 14,520 (mine), and of
# the 14,512 that are not a 1e+308 feature cell of the explained row (build).
CSV_SPOILS = 60, 150, 60
# A number that is not finite: in a relevance trace anywhere but the row's id, in
# thresholds only as a threshold, in a DOT only as an edge label's.
_NON_FINITE = {"trace_3.txt": re.compile(r"(?i)(?<!instance )\b(nan|inf)\b"),
               "thresholds.tsv": re.compile(r"(?im)\t-?(nan|inf)$"),
               "graph.dot": re.compile(r'(?i)label="T\d -?(nan|inf)'),
               "construction.txt": re.compile(r"(?i)\b(nan|inf)\b")}
BASE = ["--label", "diagnosis", "--id-column", "sample"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A small CSV, a trained depth-2 model and the mined edge list."""
    d = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(2)
    a = rng.random(120) < 0.5  # the label; three features follow it, one does not
    bits = np.column_stack([a, a | (rng.random(120) < 0.2), a & (rng.random(120) < 0.8),
                            rng.random(120) < 0.5])
    X = np.repeat(bits * 2.0, 2, axis=1)  # each feature twice, the copy with 10% ones added
    X[:, 1::2] = (bits | (rng.random(bits.shape) < 0.1)) * 2.0
    write_csv(str(d / "data.csv"), X + rng.normal(0, 0.1, X.shape), a.astype(int), id_col=True)
    data = ["--data", str(d / "data.csv"), *BASE, "--mu", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", *data, "--depth", "2", "--epochs-max", "3", "--out", str(d / "t")]) == 0
        assert main(["mine", *data, "--out", str(d / "m")]) == 0
    model = json.loads((d / "t" / "model.json").read_text())
    assert len(model["blocks"]) == 2
    return d, model, (d / "m" / "edges.tsv").read_text()


def _paths(node, path=()):
    """The path of every node below node: dict keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _spoilt(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _valid_edge_line(line: str) -> bool:
    """The edge-row rule over one edge list line, read without the library."""
    cells = line.split("\t")
    if len(cells) != 7 or cells[2] not in ("T0", "T1", "T2", "T3", "T4", "T5") or cells[0] == cells[1]:
        return False
    try:
        log_p, exc, supp = float(cells[3]), int(cells[4]), int(cells[6])
        float(cells[5])
    except ValueError:
        return False
    return math.isfinite(log_p) and log_p <= 0 and 0 <= exc <= supp < 2**63 and supp >= 1


def _run(argv):
    """(exit code or the exception raised, stderr, warnings) of one `cli.main` run."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception as e:  # noqa: BLE001 - an escape is what this test looks for
            code = e
    return code, err.getvalue(), [str(w.message) for w in caught]


def _judge(code, err, caught, paths, output) -> str | None:
    """What breaks the contract in one run, or None; an error names one of paths."""
    if caught:
        return f"warned {caught[:1]}"
    if code == 0:
        found = _NON_FINITE[output.name].search(output.read_text())
        return f"exit 0 with {found[0]!r} in its output" if found else None
    if code == 2:
        named = err.startswith(tuple(f"error: {p}: " for p in paths))
        return None if named else f"exit 2 without the file name: {err!r}"
    return f"raised {code!r}" if isinstance(code, BaseException) else f"exit {code}"


def _sample(spoils, count, seed):
    rng = np.random.default_rng(seed)
    return [spoils[i] for i in sorted(rng.choice(len(spoils), size=min(count, len(spoils)), replace=False))]


def test_spoilt_model_exits_0_or_names_the_file(files):
    d, model, _ = files
    spoils = [(path, v) for path in _paths(model) for v in [*VALUES, DELETE]]
    broken = []
    for path, value in _sample(spoils, MODEL_SPOILS, seed=21):
        spoilt, out = d / "spoilt.json", d / "explain"
        spoilt.write_text(json.dumps(_spoilt(model, path, value)))
        shutil.rmtree(out, ignore_errors=True)
        code, err, caught = _run(["explain", "--model", str(spoilt), "--data", str(d / "data.csv"),
                                  *BASE, "--instance", "3", "--out", str(out)])
        fault = _judge(code, err, caught, [spoilt], out / "trace_3.txt")
        if fault:
            broken.append(f"{'/'.join(map(str, path))} = {value!r}: {fault}")
    assert not broken, f"{len(broken)} spoils break the contract:\n" + "\n".join(broken[:10])


def test_spoilt_edge_list_exits_0_only_when_valid_or_names_the_file(files):
    d, _, text = files
    lines = text.rstrip("\n").split("\n")
    assert len(lines) > 2
    spoils = [(i, j, v) for i, ln in enumerate(lines) for j in range(len(ln.split("\t")))
              for v in [*(json.dumps(v) for v in VALUES), DELETE]]
    broken = []
    for i, j, value in _sample(spoils, EDGE_SPOILS, seed=22):
        cells = lines[i].split("\t")
        if value is DELETE:
            del cells[j]
        else:
            cells[j] = value
        spoilt_lines = [*lines[:i], "\t".join(cells), *lines[i + 1:]]
        spoilt, out = d / "spoilt.tsv", d / "dot"
        spoilt.write_text("\n".join(spoilt_lines) + "\n")
        shutil.rmtree(out, ignore_errors=True)
        code, err, caught = _run(["export-graph", "--edges", str(spoilt), "--out", str(out)])
        fault = _judge(code, err, caught, [spoilt], out / "graph.dot")
        if code == 0 and not fault and not all(_valid_edge_line(ln) for ln in spoilt_lines[1:]):
            fault = "exit 0 on an edge list that breaks the edge-row rule"
        if fault:
            broken.append(f"line {i + 1} cell {j} = {value!r}: {fault}")
    assert not broken, f"{len(broken)} spoils break the contract:\n" + "\n".join(broken[:10])


def test_spoilt_csv_exits_0_or_names_the_file(files):
    d, _, _ = files
    model, lines = d / "t" / "model.json", (d / "data.csv").read_text().rstrip("\n").split("\n")
    spoils = [(i, j, v) for i, ln in enumerate(lines) for j in range(len(ln.split(",")))
              for v in [*(json.dumps(v) for v in VALUES), DELETE]]
    explained = [s for s in spoils if s[0] == 4]  # instance 3, under the header
    others = [s for s in spoils if s[0] != 4]
    runs = [("explain", s) for s in explained + _sample(others, CSV_SPOILS[0], seed=23)]
    runs += [("mine", s) for s in _sample(spoils, CSV_SPOILS[1], seed=24)]
    features = [j for j, name in enumerate(lines[0].split(",")) if name.startswith("g")]
    big = [s for s in explained if s[1] in features and s[2] == json.dumps(1e308)]
    runs += [("build", s) for s in big + _sample([s for s in spoils if s not in big], CSV_SPOILS[2], seed=25)]
    broken = []
    for command, (i, j, value) in runs:
        cells = lines[i].split(",")
        if value is DELETE:
            del cells[j]
        else:
            cells[j] = value
        spoilt, out = d / "spoilt.csv", d / command
        spoilt.write_text("\n".join([*lines[:i], ",".join(cells), *lines[i + 1:]]) + "\n")
        shutil.rmtree(out, ignore_errors=True)
        if command == "explain":  # a CSV whose columns do not fit the model may name the model
            argv, paths = ["explain", "--model", str(model), "--instance", "3"], [spoilt, model]
        else:
            argv, paths = [command, "--mu", "1"], [spoilt]
        code, err, caught = _run([*argv, "--data", str(spoilt), *BASE, "--out", str(out)])
        output = out / {"explain": "trace_3.txt", "mine": "thresholds.tsv", "build": "construction.txt"}[command]
        fault = _judge(code, err, caught, paths, output)
        if command == "mine" and code == 0 and not fault:
            mined = (out / "edges.tsv").read_text().rstrip("\n").split("\n")
            if not all(_valid_edge_line(ln) for ln in mined[1:]):
                fault = "mined an edge list that breaks the edge-row rule"
        if fault:
            broken.append(f"{command}: line {i + 1} cell {j} = {value!r}: {fault}")
    assert not broken, f"{len(broken)} spoils break the contract:\n" + "\n".join(broken[:10])
