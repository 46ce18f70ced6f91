#!/usr/bin/env python3
"""Output parity between two checkouts: run one fixed job set in each and
compare every artifact byte for byte.

    python scripts/parity.py OLD NEW

OLD and NEW are the roots of two checkouts of this repository (`. .` checks
that a tree reproduces itself). The inputs are made once: mine-wide seeds 3
and 7006 and cv-train seed 11 by NEW's `perfbench/prepare.py`, the small
CSV that CI's console-script step writes, and a deep CSV of four latent
modules. Each job then runs once per tree,
in a process of its own with `PYTHONPATH=<tree>/src` and
`OPENBLAS_NUM_THREADS=1`, since trained models change in their last bits
with the BLAS thread count. The jobs:

- `birdnet mine` on both mine-wide CSVs;
- `build`, `train --depth 3`, `eval --cv 2 --matched`, `rules` and
  `explain` (instance 0 with no `--class`, instance 3 with one) on the CI
  CSV, the explanations reading the tree's own trained model;
- `train --depth 3`, `explain` on that model and `rules` at the default
  `--mu` and `--rule-min-support` on the deep CSV, whose models have at
  least two blocks and whose rules file has rows (checked in each tree);
- cv-train seed 11's `cross_validate` with perfbench's `CvTrain` config,
  kept as one sha256 per fold model.

It prints one line per artifact: `identical`, or where the two first differ
(the line, in a text file, or else the byte offset). Only the path entries
of each `manifest.json` are masked. It exits 1 on any difference.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

MINE_SEEDS = (3, 7006)
CV_SEED = 11

# Runs the CLI of the tree whose src is argv[1], after checking that it is that tree's birdnet.
CLI = """import os, sys
import birdnet.cli
assert birdnet.cli.__file__.startswith(sys.argv[1] + os.sep), birdnet.cli.__file__
sys.exit(birdnet.cli.main(sys.argv[2:]))
"""

# argv: src, perfbench of the tree that made the inputs, input dir, output dir.
CV_JOB = """import hashlib, os, sys
import birdnet.evaluate, birdnet.network
assert birdnet.evaluate.__file__.startswith(sys.argv[1] + os.sep), birdnet.evaluate.__file__
sys.path.insert(0, sys.argv[2])
from workloads import CvTrain
wl = CvTrain(sys.argv[3], {seed})
lines = []
for fold in birdnet.evaluate.cross_validate(wl.ds, wl.cfg).folds:
    path = os.path.join(sys.argv[4], "model.json")
    birdnet.network.save_network(fold.net, path)
    with open(path, "rb") as fh:
        lines.append(f"{{hashlib.sha256(fh.read()).hexdigest()}}  model_fold{{fold.fold}}.json\\n")
    os.remove(path)
with open(os.path.join(sys.argv[4], "fold_models.sha256"), "w") as fh:
    fh.writelines(lines)
""".format(seed=CV_SEED)


def write_fixture(path: str) -> None:
    """The CSV of CI's console-script step: 120 rows, 12 features, g1 follows g0."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.normal(size=(120, 12))
    X[:, 1] = X[:, 0] + 0.1 * rng.normal(size=120)
    with open(path, "w") as fh:
        fh.write(",".join(["label"] + [f"g{j}" for j in range(12)]) + "\n")
        for i, row in enumerate(X):
            fh.write(",".join([f"c{i % 2}"] + [repr(float(v)) for v in row]) + "\n")


def write_deep_fixture(path: str) -> None:
    """300 rows of 4 latent modules x 6 noisy copies (noise 0.2); the label is
    the sign of the first two modules' sum. Mining at the default `mu` builds
    three pair layers on it."""
    import numpy as np

    rng = np.random.default_rng(1)
    latent = rng.normal(size=(300, 4))
    X = np.repeat(latent, 6, axis=1) + 0.2 * rng.normal(size=(300, 24))
    y = (latent[:, 0] + latent[:, 1] > 0).astype(int)
    with open(path, "w") as fh:
        fh.write(",".join(["label"] + [f"m{j // 6}g{j % 6}" for j in range(24)]) + "\n")
        for label, row in zip(y, X):
            fh.write(",".join([f"c{label}"] + [repr(float(v)) for v in row]) + "\n")


def make_inputs(new: str, inputs: str) -> None:
    prepare = os.path.join(new, "perfbench", "prepare.py")
    for workload, seed in [*(("mine-wide", s) for s in MINE_SEEDS), ("cv-train", CV_SEED)]:
        out = os.path.join(inputs, f"{workload}-{seed}")
        os.makedirs(out)
        subprocess.run([sys.executable, prepare, workload, str(seed), out], check=True)
    write_fixture(os.path.join(inputs, "fixture.csv"))
    write_deep_fixture(os.path.join(inputs, "deep.csv"))


def cli_jobs(inputs: str) -> list[tuple[str, list[str]]]:
    """(name, CLI argv) per job; `{root}` is the tree's output root."""
    fixture = ["--data", os.path.join(inputs, "fixture.csv"), "--label", "label"]
    jobs = [(f"mine-wide-{seed}", ["mine", "--data", os.path.join(inputs, f"mine-wide-{seed}", "data.csv"),
                                   "--label", "label", "--id-column", "id"]) for seed in MINE_SEEDS]
    jobs += [
        ("build", ["build", *fixture, "--mu", "1"]),
        ("train", ["train", *fixture, "--mu", "1", "--depth", "3"]),
        ("eval", ["eval", *fixture, "--mu", "1", "--cv", "2", "--matched"]),
        ("rules", ["rules", *fixture, "--mu", "1", "--rule-min-support", "1"]),
    ]
    model = ["--model", os.path.join("{root}", "train", "model.json")]
    jobs += [
        ("explain-0", ["explain", *fixture, *model, "--instance", "0"]),
        ("explain-3", ["explain", *fixture, *model, "--instance", "3", "--class", "c1"]),
    ]
    deep = ["--data", os.path.join(inputs, "deep.csv"), "--label", "label"]
    jobs += [
        ("deep-train", ["train", *deep, "--depth", "3"]),
        ("deep-explain", ["explain", *deep, "--model", os.path.join("{root}", "deep-train", "model.json"),
                          "--instance", "0"]),
        ("deep-rules", ["rules", *deep]),
    ]
    return jobs


def check_deep(root: str) -> list[str]:
    """A line per way the deep jobs' outputs under root are too shallow to
    test the training path: a model of fewer than two blocks, or no rules."""
    failed = []
    for job in ("deep-train", "deep-rules"):
        with open(os.path.join(root, job, "model.json")) as fh:
            blocks = len(json.load(fh)["blocks"])
        if blocks < 2:
            failed.append(f"{job}: {blocks} block(s) in {root}, expected at least 2")
    with open(os.path.join(root, "deep-rules", "rules.csv")) as fh:
        if len(fh.read().splitlines()) < 2:
            failed.append(f"deep-rules: no rule in {root}")
    return failed


def run_tree(tree: str, new: str, inputs: str, root: str) -> list[str]:
    """Runs every job in `tree`, writing under root; returns a line per failed job."""
    src = os.path.abspath(os.path.join(tree, "src"))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    runs = [(name, [sys.executable, "-c", CLI, src, *(a.format(root=root) for a in argv),
                    "--out", os.path.join(root, name)]) for name, argv in cli_jobs(inputs)]
    cv_out = os.path.join(root, f"cv-train-{CV_SEED}")
    os.makedirs(cv_out)
    runs.append((f"cv-train-{CV_SEED}", [sys.executable, "-c", CV_JOB, src, os.path.join(new, "perfbench"),
                                         os.path.join(inputs, f"cv-train-{CV_SEED}"), cv_out]))
    failed = []
    for name, cmd in runs:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            last = (proc.stderr.strip().splitlines() or ["(no output)"])[-1]
            failed.append(f"{name}: exited {proc.returncode} in {tree}: {last}")
    return failed or check_deep(root)


def masked(data: bytes, work: str) -> bytes:
    """A manifest with every path under the work directory replaced by `<path>`."""
    record = json.loads(data)
    for key, value in record.items():
        if isinstance(value, str) and value.startswith(work):
            record[key] = "<path>"
    return json.dumps(record, indent=2, sort_keys=True).encode()


def first_difference(old: bytes, new: bytes) -> str:
    try:
        old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    except UnicodeDecodeError:
        at = next((i for i, (a, b) in enumerate(zip(old, new)) if a != b), min(len(old), len(new)))
        return f"byte {at} differs ({len(old)} and {len(new)} bytes)"
    for no, (a, b) in enumerate(zip(old_lines, new_lines), 1):
        if a != b:
            col = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            lo = max(0, col - 30)
            return f"line {no} column {col + 1}: {a[lo:col + 30]!r} vs {b[lo:col + 30]!r}"
    return f"{len(old_lines)} and {len(new_lines)} lines"


def compare(work: str, old_root: str, new_root: str) -> list[tuple[str, str | None]]:
    """(artifact, None if identical else where it first differs) per output file."""
    files = set()
    for root in (old_root, new_root):
        for dirpath, _, names in os.walk(root):
            files.update(os.path.relpath(os.path.join(dirpath, n), root) for n in names)
    report = []
    for rel in sorted(files):
        paths = [os.path.join(root, rel) for root in (old_root, new_root)]
        if not all(os.path.exists(p) for p in paths):
            report.append((rel, f"only in {'OLD' if os.path.exists(paths[0]) else 'NEW'}"))
            continue
        old, new = (open(p, "rb").read() for p in paths)
        if os.path.basename(rel) == "manifest.json":
            old, new = masked(old, work), masked(new, work)
        report.append((rel, None if old == new else first_difference(old, new)))
    return report


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    old, new = (os.path.abspath(tree) for tree in argv)
    work = tempfile.mkdtemp(prefix="birdnet-parity-")
    try:
        inputs, old_root, new_root = (os.path.join(work, part) for part in ("inputs", "old", "new"))
        make_inputs(new, inputs)
        failed = run_tree(old, new, inputs, old_root) + run_tree(new, new, inputs, new_root)
        report = compare(work, old_root, new_root)
    finally:
        shutil.rmtree(work)
    for rel, diff in report:
        print(f"{rel}: {diff or 'identical'}")
    for line in failed:
        print(line)
    differing = sum(diff is not None for _, diff in report)
    print(f"{len(report)} artifacts, {differing} differ, {len(failed)} jobs failed")
    return 1 if differing or failed or not report else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
