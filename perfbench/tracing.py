"""Span tracing around the calls into each birdnet module.

`install` replaces the public functions and methods of every module in
MODULES (in every birdnet namespace that refers to them) with wrappers that
record one span per call: name, start, end, parent span and operation id.
Nested calls nest as child spans. Spans stay in memory until `dump`.

The wrappers live in the benchmark only; the library is unchanged.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

MODULES = ("dataio", "binarize", "mining", "builder", "network", "trainer", "explain", "evaluate", "cli")

# Private helpers that are layer boundaries in their own right.
EXTRA = {"cli": ("_manifest",)}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.enabled = False
        self.op_id: int | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, hook=None, namer=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(namer(name, args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    # -- aggregation --------------------------------------------------------

    def summarize(self, select):
        """Per span name: (calls, inclusive seconds, self seconds), over the
        spans whose operation id passes `select`."""
        child = defaultdict(float)
        for name, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls, incl, self_t = Counter(), Counter(), Counter()
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            if not select(op):
                continue
            calls[name] += 1
            incl[name] += t1 - t0
            self_t[name] += (t1 - t0) - child[i]
        return calls, incl, self_t


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer._open(self.name) if self.tracer.enabled else None
        return self

    def __exit__(self, *exc):
        if self.idx is not None:
            self.tracer._close(self.idx)
        return False


# -- counters recorded at the same boundaries -------------------------------


def _count_load_csv(c, args, kwargs, ds):
    c["dataio.cells"] += ds.values.size


def _count_mine(c, args, kwargs, graph):
    d = args[0].d
    c["mining.pairs"] += d * (d - 1) // 2
    c["mining.edges"] += len(graph.edges)


def _count_dedup(c, args, kwargs, kept):
    c["mining.dedup_in"] += len(args[0].edges)
    c["mining.kept"] += len(kept)


def _count_build(c, args, kwargs, result):
    net, _ = result
    c["builder.builds"] += 1
    c["builder.layers"] += net.depth
    for ell, blk in enumerate(net.blocks):
        c["builder.units"] += blk.linear.out_dim
        c[f"builder.units_l{ell}"] += blk.linear.out_dim


def _forward_mode(args, kwargs) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "eval")


def _name_forward(name, args, kwargs):
    return f"{name}[{_forward_mode(args, kwargs)}]"


def _count_forward(c, args, kwargs, result):
    c[f"network.rows_{_forward_mode(args, kwargs)}"] += len(args[1])


def _count_train(c, args, kwargs, result):
    _, history = result
    c["trainer.epochs"] += len(history.train_loss)


def _count_load_network(c, args, kwargs, net):
    c["network.model_bytes"] += os.path.getsize(args[0])


HOOKS = {
    "dataio.load_csv": _count_load_csv,
    "mining.mine_birs": _count_mine,
    "mining.deduplicate_and_cap": _count_dedup,
    "builder.build_birdnet": _count_build,
    "network.BirNetwork.forward": _count_forward,
    "trainer.train": _count_train,
    "network.load_network": _count_load_network,
}
NAMERS = {"network.BirNetwork.forward": _name_forward}


def _traceable(name: str, obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj) and not name.startswith("__")


def install(tracer: Tracer) -> None:
    """Wrap every public function and method of MODULES."""
    mods = {m: importlib.import_module(f"birdnet.{m}") for m in MODULES}
    replaced: dict[int, object] = {}

    def wrapped(label, fn):
        return tracer.wrap(label, fn, HOOKS.get(label), NAMERS.get(label))

    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            public = not attr.startswith("_") or attr in EXTRA.get(short, ())
            if not public:
                continue
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    label = f"{short}.{obj.__name__}.{mname}"
                    if isinstance(member, classmethod) and _traceable(mname, member.__func__):
                        setattr(obj, mname, classmethod(wrapped(label, member.__func__)))
                    elif _traceable(mname, member):
                        setattr(obj, mname, wrapped(label, member))
            elif _traceable(attr, obj) and obj.__module__ == mod.__name__:
                replaced[id(obj)] = wrapped(f"{short}.{attr}", obj)

    # Rebind every reference: module globals (from-imports included) and
    # module-level dispatch tables such as the CLI's command map.
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if id(val) in replaced:
                        obj[key] = replaced[id(val)]


# -- per-layer metrics ------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_ops: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}. Times and counts are per
    traced operation; every ratio is given next to its base."""
    calls, incl, self_t = tracer.summarize(lambda op: op is not None and op >= 0)
    load_calls, load_incl, _ = tracer.summarize(lambda op: op == -1)
    c = tracer.counts
    per = 1.0 / max(n_ops, 1)

    def inc(*names):
        return sum(incl[k] for k in names)

    module_self = Counter()
    for name, t in self_t.items():
        module_self[name.split(".", 1)[0]] += t

    steps = calls["network.BirNetwork.forward[train]"]
    train_rows = c["network.rows_train"]
    m = {}
    for mod in MODULES + ("bench",):
        m[f"{mod}.self_s"] = (module_self[mod] * per, "s")
    m.update(
        {
            "dataio.load_csv_s": (inc("dataio.load_csv") * per, "s"),
            "dataio.cells": (c["dataio.cells"] * per, "count"),
            "dataio.cells_per_s": (_ratio(c["dataio.cells"], inc("dataio.load_csv")), "1/s"),
            "dataio.anova_s": (inc("dataio.anova_f_select") * per, "s"),
            "dataio.standardize_s": (inc("dataio.fit_standardizer", "dataio.apply_standardizer") * per, "s"),
            "binarize.fit_s": (inc("binarize.fit_binarization") * per, "s"),
            "binarize.pack_s": (inc("binarize.binarize") * per, "s"),
            "mining.mine_s": (inc("mining.mine_birs") * per, "s"),
            "mining.pairs": (c["mining.pairs"] * per, "count"),
            "mining.pairs_per_s": (_ratio(c["mining.pairs"], inc("mining.mine_birs")), "1/s"),
            "mining.edges": (c["mining.edges"] * per, "count"),
            "mining.edge_yield": (_ratio(c["mining.edges"], c["mining.pairs"]), "ratio"),
            "mining.dedup_s": (inc("mining.deduplicate_and_cap") * per, "s"),
            "mining.dedup_in": (c["mining.dedup_in"] * per, "count"),
            "mining.kept": (c["mining.kept"] * per, "count"),
            "mining.kept_frac": (_ratio(c["mining.kept"], c["mining.dedup_in"]), "ratio"),
            "builder.build_s": (inc("builder.build_birdnet") * per, "s"),
            "builder.builds": (c["builder.builds"] * per, "count"),
            "builder.layers": (_ratio(c["builder.layers"], c["builder.builds"]), "count"),
            "builder.units": (_ratio(c["builder.units"], c["builder.builds"]), "count"),
            "network.train_step_ms": (
                1e3 * _ratio(inc("network.BirNetwork.forward[train]", "network.BirNetwork.backward"), steps),
                "ms",
            ),
            "network.eval_forward_ms": (
                1e3 * _ratio(inc("network.BirNetwork.forward[eval]"), calls["network.BirNetwork.forward[eval]"]),
                "ms",
            ),
            "network.eval_rows": (c["network.rows_eval"] * per, "count"),
            "network.load_s": (_ratio(load_incl["network.load_network"], load_calls["network.load_network"]), "s"),
            "network.model_bytes": (_ratio(c["network.model_bytes"], load_calls["network.load_network"]), "bytes"),
            "trainer.train_s": (inc("trainer.train") * per, "s"),
            "trainer.steps": (steps * per, "count"),
            "trainer.epochs": (c["trainer.epochs"] * per, "count"),
            "trainer.rows": (train_rows * per, "count"),
            "trainer.rows_per_s": (_ratio(train_rows, inc("trainer.train")), "1/s"),
            "explain.lrp_ms": (1e3 * _ratio(inc("explain.lrp_explain"), calls["explain.lrp_explain"]), "ms"),
            "evaluate.cv_self_s": (self_t["evaluate.cross_validate"] * per, "s"),
            "evaluate.auroc_s": (inc("evaluate.auroc_macro_ovr") * per, "s"),
            "cli.write_s": (
                inc("mining.graph_to_tsv", "mining.export_graph", "binarize.BinarizationModel.to_text", "cli._manifest")
                * per,
                "s",
            ),
            "trace.spans_per_op": (sum(calls.values()) * per, "count"),
            "trace.self_sum_ms": (1e3 * sum(self_t.values()) * per, "ms"),
        }
    )
    for ell in range(3):
        m[f"builder.units_l{ell}"] = (_ratio(c[f"builder.units_l{ell}"], c["builder.builds"]), "count")
    return m
