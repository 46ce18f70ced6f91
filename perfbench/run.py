"""The birdnet benchmark: one seeded workload, its outputs checked, its
metrics printed by name and unit.

    python3 perfbench/run.py --workload {mine-wide,cv-train,serve-explain}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; birdnet is imported from the `src` directory next to this
one. Inputs are made from --seed in a separate process, then one client runs the
workload's operations in a closed loop for S seconds of operation time,
checking every output. Set-up is timed in fresh processes started between
operations, spread over the run.

With --trace 0 the last line is the end-to-end metrics. With --trace 1 the
first half of the time runs untraced, the second half with spans around the
calls into every birdnet module, and the last line is the per-layer
metrics (per traced operation), including the tracing overhead. The spans
are written to .perfbench_out/trace-<workload>.jsonl.

Human-readable lines come first: the environment, the realised input shape
and the metrics under the names each workload is usually quoted by.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
PREPARE_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 60
MAX_ERRORS_SHOWN = 5


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "default",
    }


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, as
    (value, label); the maximum when there are fewer than eleven samples."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return v[-1], f"max of {n}"
    return v[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


class Sample:
    """What one closed-loop stretch measured."""

    def __init__(self):
        self.lat: dict[str, list[float]] = defaultdict(list)
        self.rows: Counter = Counter()  # rows completed, by operation kind
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0

    @property
    def all_lat(self) -> list[float]:
        return [x for v in self.lat.values() for x in v]


def p95(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[-1]


def measure(wl, seconds: float, seed: int, tracer=None, warmup: int = 0, pause=None) -> Sample:
    """Run operations in a closed loop for `seconds` of operation time, after
    `warmup` untimed operations (checked, and counted as attempted). If given,
    `pause()` is called SETUP_REPEATS times between operations, spread evenly
    over the operation time, so that what it measures sees the same host
    phases as the operations do."""
    out = Sample()
    pauses = 0 if pause is None else SETUP_REPEATS
    reqs = wl.requests(seed)
    for _ in range(warmup):
        kind, payload, _ = next(reqs)
        out.attempted += 1
        try:
            wl.check(kind, payload, wl.run(kind, payload))
        except Exception as e:
            out.failed += 1
            print(f"warm-up operation ({kind}) failed: {type(e).__name__}: {e}", file=sys.stderr)
    timed = 0
    while out.busy < seconds:
        if pauses and out.busy >= seconds * (SETUP_REPEATS - pauses) / SETUP_REPEATS:
            pause()
            pauses -= 1
        # Do not start an operation that would, on average, run past the end.
        if timed and out.busy + out.busy / timed > seconds:
            break
        kind, payload, nrows = next(reqs)
        out.attempted += 1
        timed += 1
        error = None
        if tracer is not None:
            tracer.op_id = timed
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span(f"bench.{kind}"):
                    result = wl.run(kind, payload)
            else:
                result = wl.run(kind, payload)
        except Exception as e:  # an operation that raises counts as failed
            error = e
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
            tracer.op_id = None
        out.busy += dt
        if error is None:
            try:
                wl.check(kind, payload, result)
            except Exception as e:  # so does one whose output is wrong
                error = e
        if error is None:
            out.lat[kind].append(dt)
            out.rows[kind] += nrows
        else:
            out.failed += 1
            if out.failed <= MAX_ERRORS_SHOWN:
                print(f"operation {out.attempted} ({kind}) failed: {type(error).__name__}: {error}", file=sys.stderr)
    for _ in range(pauses):
        pause()
    return out


def prepare(workload: str, seed: int, inputs: str) -> None:
    subprocess.run(
        [sys.executable, os.path.join(HERE, "prepare.py"), workload, str(seed), inputs],
        check=True,
        timeout=PREPARE_TIMEOUT_S,
    )


def setup_seconds(workload: str, inputs: str) -> float:
    """Time from process start to ready, in a fresh process."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "probe.py"), workload, inputs],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def end_to_end(wl, sample: Sample, setups: list[float]) -> tuple[dict, list[str]]:
    # A kind without a successful operation leaves the run not correct.
    p50_lat = sample.lat[wl.p50_kind] or [0.0]
    tail_lat = sample.lat[wl.tail_kind] or [0.0]
    rows_busy = sum(sample.lat[wl.rows_kind]) or 1.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (1e3 * statistics.median(p50_lat), "ms"),
        "op_tail_ms": (1e3 * p95(tail_lat), "ms"),
        "rows_per_s": (sample.rows[wl.rows_kind] / rows_busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": ((sample.attempted - sample.failed) / sample.attempted, "ratio"),
        "quality": (wl.quality(), "ratio"),
    }
    lines = [f"setup_s            {metrics['setup_s'][0]:.4f} s (median of {len(setups)} fresh-process set-ups spread over the run)"]

    def timing(name, values, scale, unit):
        if not values:
            lines.append(f"{name:<18} no successful samples")
            return
        tv, tl = tail(values)
        lines.append(
            f"{name:<18} median {scale * statistics.median(values):.4f} {unit}, "
            f"{tl}: {scale * tv:.4f} {unit}"
        )

    if wl.name == "mine-wide":
        timing("mine_job_s", sample.lat["mine"], 1.0, "s")
    elif wl.name == "cv-train":
        timing("cv_job_s", sample.lat["cv"], 1.0, "s")
        lines.append(f"cv_auroc           {metrics['quality'][0]:.4f} (median over jobs)")
    else:
        timing("predict_ms", sample.lat["predict"], 1e3, "ms")
        lines.append(f"batch_rows_per_s   {metrics['rows_per_s'][0]:.1f} 1/s over {len(sample.lat['batch'])} batches")
        timing("explain_ms", sample.lat["explain"], 1e3, "ms")
        lines.append(f"served_auroc       {metrics['quality'][0]:.4f}")
    lines.append(f"peak_rss_mb        {metrics['peak_rss_mb'][0]:.1f} MB")
    lines.append(f"error_rate         {sample.failed / sample.attempted:.4f} ({sample.failed}/{sample.attempted})")
    return metrics, lines


def per_layer(untraced: Sample, traced: Sample, tracer) -> dict:
    from tracing import layer_metrics

    n = traced.attempted
    # Untraced latency re-weighted to the traced run's mix of operation kinds.
    untraced_ms = 1e3 * sum(
        len(traced.lat[k]) * statistics.mean(untraced.lat[k]) for k in traced.lat if untraced.lat[k]
    ) / max(sum(len(v) for v in traced.lat.values()), 1)
    traced_ms = 1e3 * statistics.mean(traced.all_lat) if traced.all_lat else float("nan")
    metrics = layer_metrics(tracer, n)
    metrics["trace.untraced_op_ms"] = (untraced_ms, "ms")
    metrics["trace.traced_op_ms"] = (traced_ms, "ms")
    metrics["trace.overhead_ms"] = (traced_ms - untraced_ms, "ms")
    metrics["trace.overhead_frac"] = ((traced_ms - untraced_ms) / untraced_ms, "ratio")
    for kind in ("predict", "batch", "explain"):
        metrics[f"serve.requests_{kind}"] = (float(len(traced.lat[kind])), "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="birdnet benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "birdnet", "__init__.py")):
        print(f"error: birdnet sources not found under {SRC}", file=sys.stderr)
        return 2
    # One client thread on one core: a second BLAS thread would make every
    # timing depend on how busy the other core of a shared host is.
    # Set before numpy loads; the prepare and probe processes inherit it.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [HERE, SRC]
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    Workload = WORKLOADS[args.workload]

    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    inputs = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        prepare(args.workload, args.seed, inputs)
        wl = Workload(inputs, args.seed)
        if args.trace:
            half = args.seconds / 2.0
            untraced = measure(wl, half, args.seed, warmup=Workload.warmup)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            if hasattr(wl, "load"):  # traced model load, outside any operation
                tracer.op_id, tracer.enabled = -1, True
                wl.load()
                tracer.op_id, tracer.enabled = None, False
            traced = measure(wl, half, args.seed, tracer)
            metrics = per_layer(untraced, traced, tracer)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
            out_dir = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(out_dir, f"trace-{args.workload}.jsonl")
            tracer.dump(trace_path)
            lines = [f"spans written to {trace_path}"] + [
                f"{name:<26} {value:.6g} {unit}" for name, (value, unit) in sorted(metrics.items())
            ]
            section = "per_layer"
        else:
            setups = []
            sample = measure(wl, args.seconds, args.seed, warmup=Workload.warmup,
                             pause=lambda: setups.append(setup_seconds(args.workload, inputs)))
            metrics, lines = end_to_end(wl, sample, setups)
            attempted, failed = sample.attempted, sample.failed
            section = "end_to_end"
        shape = wl.shape_note()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[section]}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        print(f"error: measured {section} metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}", file=sys.stderr)
        return 3

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"shape {shape}")
    for line in lines:
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
