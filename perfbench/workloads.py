"""The three workloads: their input shapes, input preparation, operations and
output checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one returns. Every operation goes through birdnet's public
API, called through module attributes so that the traced run sees it.

  mine-wide      repeated `birdnet mine` jobs (in-process, via cli.main) on a
                 wide CSV: the pure-Python CSV parser plus the O(d^2) bitset
                 pair scan at a low edge yield. Trainer and network idle.
  cv-train       repeated evaluate.cross_validate jobs on an in-memory
                 dataset: ANOVA preselection, construction with a high-yield
                 deep mining pass, and hand-derived training (network in
                 train mode). The CSV parser is bypassed.
  serve-explain  a trained depth-3 model serves a seeded mix of single-row
                 predicts, 64-row batch predicts and single-instance
                 relevance traces (network read-only, tiny batches).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os

import numpy as np

from gen import Shape, generate, linked_pairs, write_csv

from birdnet import binarize, builder, cli, dataio, evaluate, explain, mining, network, trainer

# n=1000 rows, d=1000 features: 25 modules of 20 features, 500 noise columns.
MINE_SHAPE = Shape(n=1000, modules=25, followers=16, negations=2, noise_cols=500)
MINE_SAMPLE_PAIRS = 200  # per kind (random pairs, pairs with a mined edge)

# n=800, d=300 (5 modules of 7 features, 265 noise), two balanced classes.
CV_SHAPE = Shape(n=800, modules=5, followers=5, negations=0, noise_cols=265, label_modules=5, classes=2)
CV_FOLDS = 3
CV_PRESELECT = 150
CV_DEPTH = 2
CV_H_MAX = 600
CV_EPOCHS = 8
CV_AUROC_FLOOR = 0.8

# n=600 training rows, d=116 (14 modules of 4 features, 60 noise); depth 3
# gives widths [170, 1000, 5000]. The served model is the deployment and stays
# the same for every run; the seed draws the traffic and its row pool.
SERVE_SHAPE = Shape(n=600, modules=14, followers=2, negations=0, noise_cols=60, label_modules=13, classes=2)
SERVE_MODEL_SEED = 1
SERVE_EPOCHS = 3
SERVE_HELDOUT = 4096  # held-out rows from the model's distribution
SERVE_POOL = 512  # of them, the rows one run's requests draw from
SERVE_BATCH = 64
# An assumed mix, not a measured one; no gated figure depends on it (see
# ServeExplain.p50_kind).
SERVE_MIX = (("predict", 0.7), ("batch", 0.1), ("explain", 0.2))
SERVE_TOLERANCE = 1e-9


def _links_array(links) -> np.ndarray:
    """Per feature, its modules as a fixed-width row padded with -1."""
    out = np.full((len(links), 2), -1, dtype=np.int64)
    for j, mods in enumerate(links):
        out[j, : len(mods)] = sorted(mods)
    return out


def _standardizer(meta: dict) -> dataio.Standardizer:
    s = meta["standardizer"]
    return dataio.Standardizer(
        means=np.asarray(s["means"]),
        stddevs=np.asarray(s["stddevs"]),
        constant=np.asarray(s["constant"], dtype=bool),
    )


def auroc(scores: np.ndarray, positive: np.ndarray) -> float:
    """Two-class AUROC with midranks; independent of birdnet.evaluate."""
    from scipy.stats import rankdata

    ranks = rankdata(scores)
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# mine-wide
# ---------------------------------------------------------------------------


class MineWide:
    name = "mine-wide"
    warmup = 1
    # The operation kind behind op_p50_ms, op_tail_ms and rows_per_s.
    p50_kind = tail_kind = rows_kind = "mine"

    @staticmethod
    def prepare(seed: int, out: str) -> None:
        table = generate(MINE_SHAPE, seed)
        stored = write_csv(table, os.path.join(out, "data.csv"))
        # Reference bits, made the way `birdnet mine` makes them.
        std = dataio.fit_standardizer(stored)
        X = dataio.apply_standardizer(std, stored)
        bmat = binarize.binarize(X, binarize.fit_binarization(X))
        np.savez(os.path.join(out, "ref.npz"), bits=bmat.bits, links=_links_array(table.links))

    def __init__(self, inputs: str, seed: int):
        self.csv = os.path.join(inputs, "data.csv")
        self.out = os.path.join(inputs, "mine_out")
        ref = np.load(os.path.join(inputs, "ref.npz"))
        self.bits, self.links = ref["bits"], ref["links"]
        self.n, self.d = MINE_SHAPE.n, MINE_SHAPE.d
        self.seed = seed
        self.cfg = mining.MiningConfig()
        self.digest = None
        self.quality_value = 0.0
        self.edges = 0

    def requests(self, seed: int):
        while True:
            yield "mine", None, self.n

    def run(self, kind, payload):
        argv = ["mine", "--data", self.csv, "--label", "label", "--id-column", "id", "--out", self.out]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, kind, payload, rc) -> None:
        if rc != 0:
            raise CheckFailed(f"birdnet mine exited {rc}")
        with open(os.path.join(self.out, "edges.tsv"), "rb") as fh:
            raw = fh.read()
        digest = hashlib.sha256(raw).hexdigest()
        if self.digest is None:
            self._check_edges(raw.decode("utf-8"))
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("repeated mine job on the same input gave different edges")

    def _check_edges(self, text: str) -> None:
        ln_p_star = math.log(self.cfg.p_star)
        by_pair: dict[tuple[int, int], list[tuple]] = {}
        lines = text.splitlines()
        if not lines or not lines[0].startswith("source\t"):
            raise CheckFailed("edges.tsv has no header")
        for ln in lines[1:]:
            src, tgt, btype, log_p, exc, frac, supp = ln.split("\t")
            i, j = int(src[1:]), int(tgt[1:])
            log_p, exc, frac, supp = float(log_p), int(exc), float(frac), int(supp)
            if not (log_p <= ln_p_star and frac <= self.cfg.pi and supp >= self.cfg.min_support):
                raise CheckFailed(f"edge {ln!r} breaks the p_star/pi/min_support caps")
            if abs(exc / supp - frac) > 1e-12:
                raise CheckFailed(f"edge {ln!r}: exception fraction is not exceptions/support")
            by_pair.setdefault((min(i, j), max(i, j)), []).append((i, j, btype, log_p, exc))
        self.edges = len(lines) - 1

        # Scalar path on a seeded sample: random pairs and pairs with edges.
        rng = np.random.Generator(np.random.PCG64(self.seed))
        pairs = set()
        while len(pairs) < MINE_SAMPLE_PAIRS:
            i, j = sorted(int(v) for v in rng.choice(self.d, 2, replace=False))
            pairs.add((i, j))
        mined = sorted(by_pair)
        for m in rng.choice(len(mined), min(MINE_SAMPLE_PAIRS, len(mined)), replace=False):
            pairs.add(mined[int(m)])
        for i, j in sorted(pairs):
            self._check_pair(i, j, by_pair.get((i, j), []))

        found = set(by_pair)
        planted = linked_pairs([frozenset(int(m) for m in row if m >= 0) for row in self.links])
        hits = len(found & planted)
        precision = hits / len(found) if found else 0.0
        recall = hits / len(planted)
        self.quality_value = 2 * precision * recall / (precision + recall) if hits else 0.0

    def _check_pair(self, i: int, j: int, mined: list[tuple]) -> None:
        want = {}
        for a, b in ((i, j), (j, i)):
            for e in mining.test_pair(self.bits[a], self.bits[b], self.n, self.cfg, a, b):
                want[(e.source, e.target, e.btype)] = (e.log_p, e.exceptions)
        got = {}
        for a, b, btype, log_p, exc in mined:
            if btype in ("T4", "T5"):
                parts = ("T0", "T1") if btype == "T4" else ("T2", "T3")
                for t in parts:
                    got[(a, b, t)] = got[(b, a, t)] = None
            else:
                got[(a, b, btype)] = (log_p, exc)
        if set(got) != set(want):
            raise CheckFailed(f"pair ({i}, {j}): mined {sorted(got)} but test_pair gives {sorted(want)}")
        for key, val in got.items():
            if val is None:
                continue
            (lp, exc), (lp_ref, exc_ref) = val, want[key]
            if exc != exc_ref or abs(lp - lp_ref) > 1e-9 * abs(lp_ref):
                raise CheckFailed(f"pair ({i}, {j}) {key}: mined {val}, test_pair {want[key]}")

    def quality(self) -> float:
        return self.quality_value

    def shape_note(self) -> str:
        pairs = self.d * (self.d - 1) // 2
        return f"n={self.n} d={self.d} edges={self.edges} pairs={pairs} edge_yield={self.edges / pairs:.4f}"


# ---------------------------------------------------------------------------
# cv-train
# ---------------------------------------------------------------------------


class CvTrain:
    name = "cv-train"
    warmup = 1
    p50_kind = tail_kind = rows_kind = "cv"

    @staticmethod
    def prepare(seed: int, out: str) -> None:
        table = generate(CV_SHAPE, seed)
        np.savez(os.path.join(out, "data.npz"), values=table.values, labels=table.labels)

    def __init__(self, inputs: str, seed: int):
        data = np.load(os.path.join(inputs, "data.npz"))
        n, d = data["values"].shape
        self.ds = dataio.LabeledDataset(
            values=data["values"],
            feature_names=[f"g{j:04d}" for j in range(d)],
            sample_ids=[f"r{i}" for i in range(n)],
            labels=data["labels"],
            class_names=[f"c{c}" for c in range(CV_SHAPE.classes)],
        )
        self.cfg = evaluate.PipelineConfig(
            mining=mining.MiningConfig(h_max=CV_H_MAX),
            training=trainer.TrainConfig(epochs_max=CV_EPOCHS, patience=CV_EPOCHS, seed=seed),
            folds=CV_FOLDS,
            preselect_m=CV_PRESELECT,
            depth=CV_DEPTH,
            seed=seed,
        )
        self.aurocs: list[float] = []
        self.widths: list[list[int]] = []
        self.yields: list[float] = []

    def requests(self, seed: int):
        while True:
            yield "cv", None, self.ds.n

    def run(self, kind, payload):
        return evaluate.cross_validate(self.ds, self.cfg)

    def check(self, kind, payload, result) -> None:
        value = result.summary()["auroc_mean"]
        self.aurocs.append(value)  # the quality metric reports failing jobs too
        if not value >= CV_AUROC_FLOOR:
            raise CheckFailed(f"cv AUROC {value:.4f} below the floor {CV_AUROC_FLOOR}")
        for fold in result.folds:
            for blk in fold.net.blocks:
                lin = blk.linear
                mask = lin.mask()
                if not isinstance(lin, network.PairLinear) or mask.sum() / mask.size != 2.0 / lin.in_dim:
                    raise CheckFailed(f"fold {fold.fold}: a masked layer is not exactly 2/in_dim active")
        f0 = result.folds[0]
        self.widths.append([b.linear.out_dim for b in f0.net.blocks])
        if len(f0.report.layers) > 1:
            w = f0.report.layers[0].after_dedup_cap
            self.yields.append(f0.report.layers[1].mined_edges / (w * (w - 1) / 2))

    def quality(self) -> float:
        return float(np.median(self.aurocs)) if self.aurocs else 0.0

    def shape_note(self) -> str:
        w = self.widths[0] if self.widths else []
        y = f"{self.yields[0]:.4f}" if self.yields else "n/a"
        return f"n={self.ds.n} d={self.ds.d} preselect={CV_PRESELECT} fold0_widths={w} deep_edge_yield={y}"


# ---------------------------------------------------------------------------
# serve-explain
# ---------------------------------------------------------------------------


class ServeExplain:
    name = "serve-explain"
    warmup = 200
    # Each gated figure comes from one kind of request, so SERVE_MIX only sets
    # how many samples each kind gets.
    p50_kind, tail_kind, rows_kind = "predict", "explain", "batch"

    @staticmethod
    def prepare(seed: int, out: str) -> None:
        shape = SERVE_SHAPE
        table = generate(dataclasses.replace(shape, n=shape.n + SERVE_HELDOUT), SERVE_MODEL_SEED)
        X_raw, y = table.values[: shape.n], table.labels[: shape.n]
        std = dataio.fit_standardizer(X_raw)
        X = dataio.apply_standardizer(std, X_raw)
        net, _ = builder.build_birdnet(
            X, table.feature_names, table.class_names, mining.MiningConfig(), depth=3, seed=SERVE_MODEL_SEED
        )
        val = dataio.stratified_holdout(y, 0.15, SERVE_MODEL_SEED)
        cfg = trainer.TrainConfig(epochs_max=SERVE_EPOCHS, patience=SERVE_EPOCHS, seed=SERVE_MODEL_SEED)
        net, _ = trainer.train(net, X[~val], y[~val], X[val], y[val], cfg)
        net.meta["trained"] = True
        net.meta["standardizer"] = {
            "means": std.means.tolist(),
            "stddevs": std.stddevs.tolist(),
            "constant": std.constant.astype(int).tolist(),
        }
        network.save_network(net, os.path.join(out, "model.json"))
        rng = np.random.Generator(np.random.PCG64(seed))
        pool = shape.n + np.sort(rng.choice(SERVE_HELDOUT, SERVE_POOL, replace=False))
        np.savez(os.path.join(out, "requests.npz"), rows=table.values[pool], labels=table.labels[pool])

    def __init__(self, inputs: str, seed: int):
        self.model_path = os.path.join(inputs, "model.json")
        req = np.load(os.path.join(inputs, "requests.npz"))
        self.rows, self.labels = req["rows"], req["labels"]
        self.load()
        # Unbatched reference: one row at a time, before anything is timed.
        ref = []
        for r in range(self.rows.shape[0]):
            x = dataio.apply_standardizer(self.std, self.rows[r : r + 1])
            logits, _ = self.net.forward(x, mode="eval")
            ref.append(trainer.softmax(logits)[0])
        self.ref = np.asarray(ref)
        self.target = self.ref.argmax(axis=1)

    def load(self) -> None:
        self.net = network.load_network(self.model_path)
        self.std = _standardizer(self.net.meta)

    def requests(self, seed: int):
        rng = np.random.Generator(np.random.PCG64(seed))
        kinds = [k for k, _ in SERVE_MIX]
        probs = [p for _, p in SERVE_MIX]
        pool = self.rows.shape[0]
        while True:
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            if kind == "batch":
                idx = rng.choice(pool, SERVE_BATCH, replace=False)
            else:
                idx = rng.integers(0, pool, size=1)
            yield kind, idx, len(idx)

    def run(self, kind, idx):
        x = dataio.apply_standardizer(self.std, self.rows[idx])
        if kind == "explain":
            return explain.lrp_explain(self.net, x[0], int(self.target[idx[0]]))
        logits, _ = self.net.forward(x, mode="eval")
        return trainer.softmax(logits)

    def check(self, kind, idx, result) -> None:
        if kind == "explain":
            rel_ok = all(np.all(np.isfinite(r)) for r in result.layer_relevances)
            if not (rel_ok and math.isfinite(result.target_logit)):
                raise CheckFailed("relevance trace has non-finite values")
            if len(result.chain) != self.net.depth:
                raise CheckFailed(f"chain length {len(result.chain)} != depth {self.net.depth}")
            return
        err = float(np.max(np.abs(result - self.ref[idx])))
        if not err <= SERVE_TOLERANCE:
            raise CheckFailed(f"{kind}: predictions differ from the unbatched reference by {err:.3g}")

    def quality(self) -> float:
        return auroc(self.ref[:, 1], self.labels == 1)

    def shape_note(self) -> str:
        widths = [b.linear.out_dim for b in self.net.blocks]
        return (
            f"pool={self.rows.shape[0]} d={self.net.input_dim} widths={widths} "
            f"model_bytes={os.path.getsize(self.model_path)}"
        )


WORKLOADS = {w.name: w for w in (MineWide, CvTrain, ServeExplain)}
