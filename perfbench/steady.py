"""Steadiness self-check: are the end-to-end metrics steady enough to gate on?

    python3 perfbench/steady.py [--sets 2] [--first-seed 1]

Runs every workload of BENCHMARK.json ten times, for run_seconds each, in
each of --sets sets, each run with its own seed. For every end-to-end metric
on every workload it reports the spread of each set, (Q3 - Q1) / median with
the quartiles of statistics.quantiles(values, n=4), against the metric's
bound from BENCHMARK.json, and how far each later set's median is from the
first's in the metric's worse direction. Either above the bound fails the
check, and so does any run whose outputs fail their checks. The environment and every raw value go to .perfbench_out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, str]:
    """One benchmark run: its result line, the environment it reported and
    its standard error."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return result, env, proc.stderr


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    values = {w: [{m["name"]: [] for m in metrics} for _ in range(args.sets)] for w in workloads}
    incorrect = []
    for s in range(args.sets):
        for r in range(RUNS):
            seed = args.first_seed + s * RUNS + r
            for w in workloads:
                result, env, err = run_once(w, seed, bench["run_seconds"])
                for name, v in result["metrics"].items():
                    values[w][s][name].append(v["value"])
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: "
                      + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                      flush=True)
                if not result["correct"]:
                    # Kept in the figures: a failing run is a result, not noise.
                    incorrect.append(f"{w} seed {seed}: {result['failed']} of {result['attempted']} "
                                     f"operations failed; stderr: {(err.strip().splitlines() or ['(empty)'])[0]}")
                    print(f"  not correct: {incorrect[-1]}", flush=True)
    ok = True
    rows = []
    print(f"\nenv {json.dumps(env, sort_keys=True)}")
    print(f"{'workload':<14} {'metric':<13} {'bound':>6} " + " ".join(f"{'spread' + str(s + 1):>8}" for s in range(args.sets))
          + " " + " ".join(f"{'drift' + str(s + 1):>7}" for s in range(1, args.sets)) + "  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = values[w]
            spreads = [spread(v[name]) for v in sets]
            base = statistics.median(sets[0][name])
            drifts = []
            for v in sets[1:]:
                med = statistics.median(v[name])
                worse = (med - base) if m["better"] == "lower" else (base - med)
                drifts.append(worse / abs(base) if base else float("inf"))
            verdict = "ok"
            if any(x > bound for x in spreads) or any(d > bound for d in drifts):
                verdict, ok = "FAIL", False
            elif any(x > bound / 3 for x in spreads):
                verdict = "ok (spread above bound/3)"
            print(f"{w:<14} {name:<13} {bound:>6.3f} " + " ".join(f"{x:>8.4f}" for x in spreads)
                  + " " + " ".join(f"{d:>7.4f}" for d in drifts) + f"  {verdict}")
            rows.append({"workload": w, "metric": name, "bound": bound, "spreads": spreads,
                         "drifts": drifts, "medians": [statistics.median(v[name]) for v in sets]})
    for line in incorrect:
        print(f"FAIL (outputs) {line}")
    ok = ok and not incorrect
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "args": vars(args), "rows": rows, "values": values, "incorrect": incorrect}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
