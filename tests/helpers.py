"""Shared test utilities: independent oracles and random model factories.

The reference implementations here deliberately avoid the library's own
code paths (per-sample loops instead of a matrix product, arbitrary-precision tail
sums instead of log-domain float arithmetic) so they can serve as oracles.
"""

from __future__ import annotations

import copy
import csv
import math
from collections import namedtuple
from dataclasses import fields

import mpmath
import numpy as np

from birdnet.binarize import BinarizationModel, BinaryMatrix, fit_binarization
from birdnet.dataio import LabeledDataset
from birdnet.explain import RelevanceTrace, RuleRecord, rule_text
from birdnet.mining import EdgeTable, MiningConfig
from birdnet.network import (
    BN_EPS,
    BN_MOMENTUM,
    BirNetwork,
    DenseLinear,
    PairLinear,
    build_bir_layer,
    to_matched_mlp,
)
from birdnet.trainer import check_labels, cross_entropy, softmax

TYPES = ("T0", "T1", "T2", "T3", "T4", "T5")

# One edge as a tuple of Python scalars with its type as a name; compares
# equal to the plain tuples the naive miner returns.
Edge = namedtuple("Edge", [f.name for f in fields(EdgeTable)])
_EDGE_DTYPES = (np.int64, np.int64, np.uint8, np.float64, np.int64, np.int64)
_EDGE_DEFAULTS = (-20.0, 0, 10)  # log_p, exceptions, support


def edge_table(rows) -> EdgeTable:
    """A table from rows (source, target, type name, log_p, exceptions,
    antecedent_support); a row of only the first three
    gets a significant, exception-free edge's statistics."""
    rows = [tuple(r) + _EDGE_DEFAULTS[len(r) - 3 :] for r in rows]
    cols = list(zip(*rows)) or [()] * len(Edge._fields)
    cols[2] = [TYPES.index(t) for t in cols[2]]
    return EdgeTable(*(np.array(c, dtype=t) for c, t in zip(cols, _EDGE_DTYPES)))


def edge_rows(table: EdgeTable) -> list[Edge]:
    """The rows of a table, in order, as Edge tuples."""
    cols = [getattr(table, name).tolist() for name in Edge._fields]
    cols[2] = [TYPES[c] for c in cols[2]]
    return [Edge(*row) for row in zip(*cols)]


# ---------------------------------------------------------------------------
# Per-column binarization oracle
# ---------------------------------------------------------------------------


def fit_threshold(values) -> tuple[float, bool]:
    """(tau, degenerate) of one column of values, by `fit_binarization`."""
    model = fit_binarization(np.reshape(values, (-1, 1)))
    return float(model.thresholds[0]), bool(model.degenerate[0])


def oracle_fit_threshold(values) -> tuple[float, bool]:
    """`fit_threshold` one column at a time, as it was before the blocked
    kernel."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    n = v.shape[0]
    if n < 2:
        raise ValueError("a threshold fit needs at least 2 values per feature")
    if v[0] == v[-1]:
        return float(v[0]), True
    cs = np.cumsum(v)
    s = np.arange(1, n)
    low_sum = cs[:-1]
    high_sum = cs[-1] - low_sum
    centred = v - cs[-1] / n
    cc = np.cumsum(centred)
    sumsq = float(centred @ centred)
    sse = sumsq - cc[:-1] ** 2 / s - (cc[-1] - cc[:-1]) ** 2 / (n - s)
    tol = 1e-12 * sumsq
    s_star = int(np.argmax(sse <= sse.min() + tol)) + 1
    mean_low = low_sum[s_star - 1] / s_star
    mean_high = high_sum[s_star - 1] / (n - s_star)
    return float((mean_low + mean_high) / 2.0), False


def oracle_fit_binarization(matrix, near_constant_frac: float = 1.0) -> BinarizationModel:
    """Per-column thresholds, with the near-constant rule read from
    `np.unique` counts."""
    matrix = np.asarray(matrix, dtype=np.float64)
    n, d = matrix.shape
    thresholds = np.empty(d)
    degenerate = np.zeros(d, dtype=bool)
    for j in range(d):
        col = matrix[:, j]
        thresholds[j], degenerate[j] = oracle_fit_threshold(col)
        if not degenerate[j] and near_constant_frac < 1.0:
            _, counts = np.unique(col, return_counts=True)
            degenerate[j] = counts.max() / n >= near_constant_frac
    return BinarizationModel(thresholds=thresholds, degenerate=degenerate)


def oracle_binarize(matrix, model: BinarizationModel) -> np.ndarray:
    """The (d, n) bits of `binarize`, one column at a time."""
    matrix = np.asarray(matrix, dtype=np.float64)
    cols = [np.zeros(matrix.shape[0], dtype=bool) if deg else matrix[:, j] > tau
            for j, (tau, deg) in enumerate(zip(model.thresholds, model.degenerate))]
    return np.stack(cols)


def bmat_from_bools(B: np.ndarray) -> BinaryMatrix:
    return BinaryMatrix(bits=np.ascontiguousarray(np.asarray(B, dtype=bool).T))


# ---------------------------------------------------------------------------
# Arbitrary-precision binomial lower tail
# ---------------------------------------------------------------------------


def _mp_pmfs(n: int, p: float) -> list:
    pp = mpmath.mpf(p)
    q = 1 - pp
    pmf = q**n  # j = 0
    out = [pmf]
    for j in range(1, n + 1):
        pmf = pmf * (n - j + 1) / j * pp / q
        out.append(pmf)
    return out


def _mp_ln_one_minus(S):
    """ln(1 - S) for S in [0, 1) by the power series, avoiding the near-1
    cancellation that direct summation of the lower-tail pmf would suffer."""
    if S == 0:
        return mpmath.mpf(0)
    acc = mpmath.mpf(0)
    power = S
    m = 1
    while True:
        t = power / m
        acc += t
        if t < acc * mpmath.mpf(10) ** (-45):
            break
        power *= S
        m += 1
    return -acc


def mp_log_lower_tail(k: int, n: int, p: float) -> float:
    """ln P(K <= k), accurate to ~45 significant digits, rounded to double.

    The smaller tail is summed directly: the lower tail when its mass is
    below 1/2, otherwise the upper tail followed by a log(1 - S) series."""
    with mpmath.workdps(60):
        pmfs = _mp_pmfs(n, p)
        lower = sum(pmfs[: k + 1])
        if lower <= mpmath.mpf("0.5"):
            return float(mpmath.log(lower))
        return float(_mp_ln_one_minus(sum(pmfs[k + 1 :])))


def mp_log_lower_tail_curve(n: int, p: float) -> np.ndarray:
    """ln P(K <= k) for all k in 0..n (same branch rule as the scalar)."""
    out = np.empty(n + 1)
    with mpmath.workdps(60):
        pmfs = _mp_pmfs(n, p)
        half = mpmath.mpf("0.5")
        lower = mpmath.mpf(0)
        upper_suffix = [mpmath.mpf(0)] * (n + 2)
        for j in range(n, -1, -1):
            upper_suffix[j] = upper_suffix[j + 1] + pmfs[j]
        for k in range(n + 1):
            lower += pmfs[k]
            if lower <= half:
                out[k] = float(mpmath.log(lower))
            else:
                out[k] = float(_mp_ln_one_minus(upper_suffix[k + 1]))
    return out


# ---------------------------------------------------------------------------
# Naive reference miner (per-sample loops, mpmath tails)
# ---------------------------------------------------------------------------


def _naive_directional(a, b, n, cfg, ia, ib):
    """T0..T3 assertions for the ordered pair (a, b) of boolean lists."""
    n11 = n10 = n01 = n00 = 0
    for x, y in zip(a, b):
        if x and y:
            n11 += 1
        elif x and not y:
            n10 += 1
        elif not x and y:
            n01 += 1
        else:
            n00 += 1
    n1a, n1b = n11 + n10, n11 + n01
    if n1a in (0, n) or n1b in (0, n):
        return []

    def clamp(c):
        lo = 1.0 / (2.0 * n)
        return min(max(c / n, lo), 1.0 - lo)

    p1a, p0a = clamp(n1a), clamp(n - n1a)
    p1b, p0b = clamp(n1b), clamp(n - n1b)
    cases = [
        ("T0", n10, n1a, p1a * p0b),
        ("T1", n01, n - n1a, p0a * p1b),
        ("T2", n11, n1a, p1a * p1b),
        ("T3", n00, n - n1a, p0a * p0b),
    ]
    out = []
    for btype, k, supp, p0 in cases:
        if supp < cfg.min_support or k / supp > cfg.pi:
            continue
        log_p = mp_log_lower_tail(k, n, p0)
        if log_p <= math.log(cfg.p_star):
            out.append((ia, ib, btype, log_p, k, supp))
    return out


def naive_mine(B: np.ndarray, cfg: MiningConfig):
    """Edge list as tuples (source, target, type, log_p, exc, supp),
    with the symmetric T4/T5 merge: T4 needs T0 and T1 asserted in both
    orientations, T5 needs T2 and T3; merged constituents are removed,
    merged log_p is the max of the forward pair, exceptions pool over n."""
    B = np.asarray(B, dtype=bool)
    n, d = B.shape
    edges = []
    for i in range(d - 1):
        for j in range(i + 1, d):
            a, b = list(B[:, i]), list(B[:, j])
            fwd = _naive_directional(a, b, n, cfg, i, j)
            rev = _naive_directional(b, a, n, cfg, j, i)
            ft = {e[2]: e for e in fwd}
            rt = {e[2]: e for e in rev}
            merged, dropped = [], set()
            for t4, c1, c2 in (("T4", "T0", "T1"), ("T5", "T2", "T3")):
                if c1 in ft and c2 in ft and c1 in rt and c2 in rt:
                    exc = ft[c1][4] + ft[c2][4]
                    merged.append(
                        (i, j, t4, max(ft[c1][3], ft[c2][3]), exc, n)
                    )
                    dropped |= {c1, c2}
            merged.extend(e for e in fwd if e[2] not in dropped)
            merged.extend(e for e in rev if e[2] not in dropped)
            edges.extend(merged)
    return edges


def assert_edges_match(got, want, log_rel=1e-9):
    """Compare edge lists order-independently; log_p to relative tolerance."""
    key = lambda t: (t[0], t[1], t[2])
    got = sorted(got, key=key)
    want = sorted(want, key=key)
    assert [t[:3] for t in got] == [t[:3] for t in want]
    for g, w in zip(got, want):
        assert g[4:] == w[4:], (g, w)
        assert g[3] == w[3] or abs(g[3] - w[3]) <= log_rel * abs(w[3]), (g, w)


# ---------------------------------------------------------------------------
# Random networks and synthetic data
# ---------------------------------------------------------------------------


def random_pair_net(
    rng: np.random.Generator,
    d: int = 6,
    widths: tuple[int, ...] = (5, 4),
    k: int = 3,
    head_hidden: int | None = None,
    randomize: bool = True,
) -> BirNetwork:
    """A random implication-masked network with (optionally) randomized
    BatchNorm parameters and head biases, so no unit sits exactly on a ReLU
    kink."""
    blocks = []
    in_dim = d
    for h in widths:
        spec = []
        for _ in range(h):
            i, j = rng.choice(in_dim, size=2, replace=False)
            spec.append((int(i), int(j), TYPES[int(rng.integers(len(TYPES)))]))
        blk = build_bir_layer(edge_table(spec), in_dim, rng)
        if randomize:
            randomize_block_state(blk, rng)
        blocks.append(blk)
        in_dim = h
    layers = []
    if head_hidden:
        layers.append(DenseLinear.init(in_dim, head_hidden, rng))
        in_dim = head_hidden
    layers.append(DenseLinear.init(in_dim, k, rng))
    if randomize:
        for lay in layers:
            lay.b += rng.standard_normal(lay.out_dim) * 0.3
    return BirNetwork([f"f{i}" for i in range(d)], blocks, layers,
                      [f"c{c}" for c in range(k)])


def randomize_block_state(blk, rng: np.random.Generator) -> None:
    """Random BatchNorm affine and running statistics on a block, so the
    eval-mode fold is far from the identity."""
    h = blk.linear.out_dim
    blk.bn.gamma = rng.uniform(0.5, 1.5, h)
    blk.bn.beta = rng.standard_normal(h) * 0.3
    blk.bn.set_stats(rng.standard_normal(h) * 0.2, rng.uniform(0.5, 2.0, h))


def inference_nets(seed: int):
    """(name, net) for the network shapes the inference path must serve: two
    pair blocks under a one-layer head, three under a hidden-layer head, and
    the matched dense MLP of the latter."""
    rng = np.random.default_rng(seed)
    yield "pair", random_pair_net(rng, d=7, widths=(6, 5), k=3)
    deep = random_pair_net(rng, d=9, widths=(8, 6, 5), k=4, head_hidden=6)
    yield "pair+head_hidden", deep
    mlp = to_matched_mlp(deep, seed=seed)
    for blk in mlp.blocks:
        randomize_block_state(blk, rng)
    yield "matched_mlp", mlp


def min_kink_gap(net: BirNetwork, X: np.ndarray, mode: str = "eval") -> float:
    """Smallest |pre-ReLU activation| anywhere in a forward pass of that mode,
    dropout off. A train pass runs on a copy, so the running statistics stay.

    Central differences are only valid away from the ReLU kinks, so gradient
    checks require this gap to be comfortably larger than the step."""
    if mode == "train":
        net = copy.deepcopy(net)
    _, cache = net.forward(X, mode=mode)
    gap = math.inf
    for ell, blk in enumerate(net.blocks):
        if mode == "train":
            pre = blk.bn.gamma * cache["bn"][ell][0] + blk.bn.beta
        else:
            pre = blk.linear.folded(cache["block_in"][ell], blk.fold())
        gap = min(gap, float(np.abs(pre).min()))
    for i, lay in enumerate(net.head[:-1]):
        z = cache["head_in"][i] @ lay.W.T + lay.b
        gap = min(gap, float(np.abs(z).min()))
    return gap


def min_carried_denominator(net: BirNetwork, x: np.ndarray) -> float:
    """Smallest |input-contribution sum| over units that are active on x.

    A unit that is active purely through its BatchNorm shift or head bias
    (all input contributions ~0) absorbs its relevance into that offset under
    the epsilon rule; conservation checks must filter such degenerate samples
    out."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    _, cache = net.forward(x, mode="eval")
    worst = math.inf
    for i, lay in enumerate(net.head):
        a_in = cache["head_in"][i][0]
        denom = (a_in[None, :] * lay.W).sum(axis=1)
        z = lay.forward(a_in.reshape(1, -1))[0]
        active = z > 0 if i < len(net.head) - 1 else np.ones_like(z, bool)
        if active.any():
            worst = min(worst, float(np.abs(denom[active]).min()))
    for ell, blk in enumerate(net.blocks):
        scale = blk.bn.gamma / np.sqrt(blk.bn.running_var + BN_EPS)
        a_in = cache["block_in"][ell][0]
        lin = blk.linear
        denom = a_in[lin.src] * lin.w_src * scale + a_in[lin.tgt] * lin.w_tgt * scale
        active = (cache["block_in"] + cache["head_in"])[ell + 1][0] > 0  # the block's output
        if active.any():
            worst = min(worst, float(np.abs(denom[active]).min()))
    return worst


def finite_diff_grads(net: BirNetwork, X, y, step: float = 1e-4, mode: str = "eval"):
    """Central-difference gradients of the cross-entropy loss of a forward in
    that mode, dropout off. A train forward moves the running statistics,
    which its own loss never reads."""

    def loss():
        logits, _ = net.forward(X, mode=mode)
        return cross_entropy(logits, y)[0]

    out = {}
    for path, arr, _ in net.params():
        g = np.zeros_like(arr)
        flat, gf = arr.ravel(), g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            lp = loss()
            flat[idx] = orig - step
            lm = loss()
            flat[idx] = orig
            gf[idx] = (lp - lm) / (2.0 * step)
        out[path] = g
    return out


def eval_gradients(net: BirNetwork, X, y) -> dict[str, np.ndarray]:
    """Exact gradients of the eval-mode cross-entropy loss, keyed like
    `BirNetwork.backward`'s. The library's own `PairLinear.backward` and
    `DenseLinear.backward` are chained through each block's eval BatchNorm,
    gamma * (z - running_mean) * inv_std + beta, with the running statistics
    held constant; the library's `backward` takes only a train-mode cache."""
    a = np.asarray(X, dtype=np.float64)
    saved = []
    for blk in net.blocks:
        bn, a_in = blk.bn, a
        z = blk.linear.forward(a_in)
        inv_std = 1.0 / np.sqrt(bn.running_var + BN_EPS)
        xhat = (z - bn.running_mean) * inv_std
        a = np.maximum(bn.gamma * xhat + bn.beta, 0.0)
        saved.append((a_in, xhat, inv_std, a))
    head_in = []
    for i, lay in enumerate(net.head):
        head_in.append(a)
        a = lay.forward(a)
        if i < len(net.head) - 1:
            a = np.maximum(a, 0.0)
    da = cross_entropy(a, y)[1]
    grads = {}
    for i in reversed(range(len(net.head))):
        da, g = net.head[i].backward(da, head_in[i])
        grads.update({f"head{i}.{name}": arr for name, arr in g.items()})
        if i > 0:
            da = da * (head_in[i] > 0.0)
    for ell in reversed(range(len(net.blocks))):
        blk = net.blocks[ell]
        a_in, xhat, inv_std, post = saved[ell]
        da = da * (post > 0.0)
        grads[f"block{ell}.bn.gamma"] = (da * xhat).sum(axis=0)
        grads[f"block{ell}.bn.beta"] = da.sum(axis=0)
        da, g = blk.linear.backward(da * blk.bn.gamma * inv_std, a_in)
        grads.update({f"block{ell}.{name}": arr for name, arr in g.items()})
    return grads


def library_gradients(net: BirNetwork, X, y, mode: str) -> dict[str, np.ndarray]:
    """The library's gradients of the cross-entropy loss in that mode,
    dropout off: train mode's `BirNetwork.backward`, eval mode's
    `eval_gradients`."""
    if mode == "eval":
        return eval_gradients(net, X, y)
    logits, cache = net.forward(X, mode="train")
    return net.backward(cache, cross_entropy(logits, y)[1])


def oracle_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """The loss as `trainer.cross_entropy` computed it before it returned its
    gradient too: a pass of its own over the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = check_labels(labels, *logits.shape)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    nll = lse - shifted[np.arange(labels.shape[0]), labels]
    return float(nll.mean())


def oracle_cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The loss gradient as the former `trainer.cross_entropy_grad` computed
    it: a second softmax over the same logits."""
    labels = check_labels(labels, *logits.shape)
    g = softmax(logits)
    g[np.arange(labels.size), labels] -= 1.0
    return g / labels.size


def oracle_train_step(net: BirNetwork, xb, yb, rng, cfg, lr: float, adam: dict):
    """One training step on `net`, in place, computed the original way (see
    `oracle_gradients` and `oracle_adamw_step`). Returns the unclipped
    gradients by parameter path."""
    grads = oracle_gradients(net, xb, yb, rng, cfg.dropout)
    oracle_adamw_step(net, grads, cfg, lr, adam)
    return grads


def oracle_gradients(net: BirNetwork, xb, yb, rng, dropout: float) -> dict[str, np.ndarray]:
    """A train-mode forward and backward computed the original way:
    column-major gathers, BatchNorm as separate mean, variance and normalize
    passes, and input gradients scattered with `np.add.at`, block 0's too.
    Updates the running statistics as a train forward does; dropout masks
    come from `rng` block by block, as in the library."""
    a = np.asarray(xb, dtype=np.float64)
    saved = []
    for blk in net.blocks:
        lin, bn = blk.linear, blk.bn
        if isinstance(lin, PairLinear):
            z = a[:, lin.src] * lin.w_src + a[:, lin.tgt] * lin.w_tgt
        else:
            z = a @ lin.W.T
        mean, var = z.mean(axis=0), z.var(axis=0)
        bn.running_mean = (1 - BN_MOMENTUM) * bn.running_mean + BN_MOMENTUM * mean
        bn.running_var = (1 - BN_MOMENTUM) * bn.running_var + BN_MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat = (z - mean) * inv_std
        post = np.maximum(bn.gamma * xhat + bn.beta, 0.0)
        keep = None
        if dropout > 0.0:
            keep = rng.random(post.shape) >= dropout
        saved.append((a, xhat, inv_std, post, keep))
        a = post if keep is None else post * keep / (1.0 - dropout)
    head_in = []
    for i, lay in enumerate(net.head):
        head_in.append(a)
        a = a @ lay.W.T + lay.b
        if i < len(net.head) - 1:
            a = np.maximum(a, 0.0)
    m = a.shape[0]
    da = softmax(a)
    da[np.arange(m), yb] -= 1.0
    da = da / m
    grads = {}
    for i in reversed(range(len(net.head))):
        lay, x = net.head[i], head_in[i]
        grads[f"head{i}.W"], grads[f"head{i}.b"] = da.T @ x, da.sum(axis=0)
        da = da @ lay.W
        if i > 0:
            da = da * (x > 0.0)
    for ell in reversed(range(len(net.blocks))):
        lin, bn = net.blocks[ell].linear, net.blocks[ell].bn
        x, xhat, inv_std, post, keep = saved[ell]
        if keep is not None:
            da = da * keep / (1.0 - dropout)
        da = da * (post > 0.0)
        grads[f"block{ell}.bn.gamma"] = (da * xhat).sum(axis=0)
        grads[f"block{ell}.bn.beta"] = da.sum(axis=0)
        dxhat = da * bn.gamma
        dz = (inv_std / m) * (m * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
        if isinstance(lin, PairLinear):
            grads[f"block{ell}.w_src"] = (dz * x[:, lin.src]).sum(axis=0)
            grads[f"block{ell}.w_tgt"] = (dz * x[:, lin.tgt]).sum(axis=0)
            dxT = np.zeros((lin.in_dim, m))
            np.add.at(dxT, lin.src, (dz * lin.w_src).T)
            np.add.at(dxT, lin.tgt, (dz * lin.w_tgt).T)
            da = dxT.T
        else:
            grads[f"block{ell}.W"] = dz.T @ x
            da = dz @ lin.W
    return grads


def oracle_adamw_step(net: BirNetwork, grads: dict, cfg, lr: float, adam: dict) -> None:
    """Global-norm clipping, then AdamW one parameter array at a time, in
    place. `cfg` is a TrainConfig; `adam` is {"t": 0, "m": {}, "v": {}}
    before the first step and is updated."""
    gnorm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    clip = cfg.clip_norm / gnorm if gnorm > cfg.clip_norm else None
    b1, b2, eps = 0.9, 0.999, 1e-8
    adam["t"] += 1
    bc1, bc2 = 1.0 - b1 ** adam["t"], 1.0 - b2 ** adam["t"]
    for path, arr, decay in net.params():
        g = grads[path] if clip is None else grads[path] * clip
        m_prev = adam["m"].get(path, np.zeros_like(arr))
        v_prev = adam["v"].get(path, np.zeros_like(arr))
        adam["m"][path] = b1 * m_prev + (1 - b1) * g
        adam["v"][path] = b2 * v_prev + (1 - b2) * g * g
        step = lr * (adam["m"][path] / bc1) / (np.sqrt(adam["v"][path] / bc2) + eps)
        if decay:
            arr -= lr * cfg.weight_decay * arr
        arr -= step


def dense_weight(lin: PairLinear) -> np.ndarray:
    """The h x d weight matrix of a masked layer, masked positions exactly 0."""
    W = np.zeros((lin.out_dim, lin.in_dim))
    W[np.arange(lin.out_dim), lin.src] = lin.w_src
    W[np.arange(lin.out_dim), lin.tgt] = lin.w_tgt
    return W


def planted_pair_data(
    rng: np.random.Generator,
    n: int = 400,
    n_noise: int = 4,
    flip: float = 0.02,
    noise: float = 0.1,
):
    """Two near-equivalent features plus independent noise features.

    Feature 1 copies feature 0's bit with a `flip` fraction of 1->0 flips;
    the class label is feature 0's bit. Real values are bit*2 + N(0, noise)
    so step thresholding recovers the bits exactly."""
    a = rng.random(n) < 0.5
    b = a & ~((rng.random(n) < flip) & a)
    bits = [a, b] + [rng.random(n) < 0.5 for _ in range(n_noise)]
    X = np.stack(
        [col * 2.0 + rng.normal(0.0, noise, n) for col in bits], axis=1
    )
    y = a.astype(np.int64)
    return X, y


def write_csv(path, X, y, class_names=("neg", "pos"), id_col: bool = False):
    """Small labeled CSV for CLI and dataio tests."""
    d = X.shape[1]
    header = [f"g{j}" for j in range(d)] + ["diagnosis"]
    if id_col:
        header = ["sample"] + header
    lines = [",".join(header)]
    for i, (row, lab) in enumerate(zip(X, y)):
        cells = [repr(float(v)) for v in row] + [class_names[int(lab)]]
        if id_col:
            cells = [f"s{i}"] + cells
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Per-cell CSV reference parser
# ---------------------------------------------------------------------------


def oracle_load_csv(path, label_column, id_column=None, drop_columns=()) -> LabeledDataset:
    """The CSV loader as it was before the one-pass loadtxt parser: the csv
    module splits each record and Python's float() reads each cell. Kept as
    the reference for dataio.load_csv on the files both accept."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if label_column not in header:
            raise ValueError(f"{path}: label column {label_column!r} not in header {header}")
        skip = set(drop_columns) | {label_column}
        if id_column is not None:
            if id_column not in header:
                raise ValueError(f"{path}: id column {id_column!r} not in header")
            skip.add(id_column)
        feat_cols = [i for i, name in enumerate(header) if name not in skip]
        label_col = header.index(label_column)
        id_col = header.index(id_column) if id_column is not None else None

        rows: list[list[float]] = []
        ids: list[str] = []
        raw_labels: list[str] = []
        n_rejected = 0
        for row_num, row in enumerate(reader, start=2):
            if not row or all(c.strip() == "" for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_num} has {len(row)} cells, header has {len(header)}"
                )
            vals = []
            finite = True
            for c in feat_cols:
                cell = row[c].strip()
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at row {row_num}, "
                        f"column {header[c]!r}"
                    ) from None
                if not math.isfinite(v):
                    finite = False
                vals.append(v)
            label = row[label_col].strip()
            if label == "":
                raise ValueError(f"{path}: missing label at row {row_num}")
            if not finite:
                n_rejected += 1
                continue
            rows.append(vals)
            raw_labels.append(label)
            ids.append(row[id_col].strip() if id_col is not None else f"row{row_num}")

    if not rows:
        raise ValueError(f"{path}: no usable data rows")
    class_names: list[str] = []
    class_index: dict[str, int] = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, lab in enumerate(raw_labels):
        if lab not in class_index:
            class_index[lab] = len(class_names)
            class_names.append(lab)
        labels[i] = class_index[lab]
    return LabeledDataset(
        values=np.asarray(rows, dtype=np.float64),
        feature_names=[header[c] for c in feat_cols],
        sample_ids=ids,
        labels=labels,
        class_names=class_names,
        n_rejected_rows=n_rejected,
    )


# ---------------------------------------------------------------------------
# Unfolded inference: eval forward and relevance traces as they were before
# BatchNorm was folded into each block
# ---------------------------------------------------------------------------


def oracle_input_names(net: BirNetwork) -> list[list[str]]:
    """Every block's input names as whole lists, the way construction and
    loading once built them: feature names under block 0, then each block's
    unit names L{layer}/u{k}:{type}({a},{b}) over its own input names, up to
    the first dense block, whose units have no rule to name them by."""
    names = [list(net.feature_names)]
    for ell, blk in enumerate(net.blocks[:-1]):
        if not isinstance(blk.linear, PairLinear):
            break
        b, below = blk.linear.bindings, names[-1]
        names.append([
            f"L{ell}/u{k}:{TYPES[t]}({below[s]},{below[g]})"
            for k, (s, g, t) in enumerate(zip(b.source.tolist(), b.target.tolist(), b.btype.tolist()))
        ])
    return names


def oracle_eval_forward(net: BirNetwork, X):
    """Eval-mode logits the unfolded way: each block's linear map, then
    BatchNorm on its running statistics as a pass of its own, then ReLU.
    Returns (logits, cache) with the block inputs, post-ReLU block outputs
    and head inputs."""
    a = np.asarray(X, dtype=np.float64)
    cache = {"block_in": [], "post_bn": [], "head_in": []}
    for blk in net.blocks:
        cache["block_in"].append(a)
        z = blk.linear.forward(a)
        bn = blk.bn
        xhat = (z - bn.running_mean) * (1.0 / np.sqrt(bn.running_var + BN_EPS))
        a = np.maximum(bn.gamma * xhat + bn.beta, 0.0)
        cache["post_bn"].append(a)
    for i, lay in enumerate(net.head):
        cache["head_in"].append(a)
        a = lay.forward(a)
        if i < len(net.head) - 1:
            a = np.maximum(a, 0.0)
    return a, cache


def _oracle_stabilize(z, epsilon):
    return z + epsilon * np.where(z >= 0.0, 1.0, -1.0)


def _oracle_propagate_dense(R_out, a_in, W, scale, epsilon):
    # contribution of input i to unit j: a_i * W[j, i] * scale_j
    contrib = a_in[None, :] * W * scale[:, None]  # (out, in)
    denom = _oracle_stabilize(contrib.sum(axis=1), epsilon)
    return contrib.T @ (R_out / denom)


def _oracle_propagate_pair(R_out, a_in, lin: PairLinear, scale, epsilon):
    c_src = a_in[lin.src] * lin.w_src * scale
    c_tgt = a_in[lin.tgt] * lin.w_tgt * scale
    share = R_out / _oracle_stabilize(c_src + c_tgt, epsilon)
    R_in = np.zeros(lin.in_dim)
    np.add.at(R_in, lin.src, c_src * share)
    np.add.at(R_in, lin.tgt, c_tgt * share)
    return R_in


def oracle_lrp_explain(net: BirNetwork, instance, target_class: int, epsilon: float = 1e-6):
    """explain.lrp_explain as it was before the folded layer: the unfolded
    forward, BatchNorm's scale applied per contribution, a dense (out x in)
    contribution matrix per dense layer and np.add.at scatters."""
    x = np.asarray(instance, dtype=np.float64).reshape(1, -1)
    logits, cache = oracle_eval_forward(net, x)
    probs = softmax(logits)[0]
    pred = int(np.argmax(logits[0]))
    target_logit = float(logits[0, target_class])
    R = np.zeros(net.n_classes)
    R[target_class] = target_logit
    for i in reversed(range(len(net.head))):
        lay = net.head[i]
        R = _oracle_propagate_dense(R, cache["head_in"][i][0], lay.W, np.ones(lay.out_dim), epsilon)
    layer_rel = [None] * len(net.blocks)
    for ell in reversed(range(len(net.blocks))):
        blk = net.blocks[ell]
        layer_rel[ell] = R.copy()
        scale = blk.bn.gamma / np.sqrt(blk.bn.running_var + BN_EPS)
        a_in = cache["block_in"][ell][0]
        if isinstance(blk.linear, PairLinear):
            R = _oracle_propagate_pair(R, a_in, blk.linear, scale, epsilon)
        else:
            R = _oracle_propagate_dense(R, a_in, blk.linear.W, scale, epsilon)
    chain = []
    if all(isinstance(blk.linear, PairLinear) for blk in net.blocks):  # only pair units have rules
        input_names = oracle_input_names(net)
        for ell in reversed(range(len(net.blocks))):
            b = net.blocks[ell].linear.bindings
            if chain:
                above = net.blocks[ell + 1].linear.bindings
                cand = (int(above.source[u]), int(above.target[u]))
                u = cand[int(np.argmax([layer_rel[ell][c] for c in cand]))]
            else:
                u = int(np.argmax(layer_rel[ell]))
            chain.append((ell, u, rule_text(b, u, input_names[ell]), float(layer_rel[ell][u])))
    chain.reverse()
    return RelevanceTrace(
        instance_id="?",
        predicted_class=net.class_names[pred],
        predicted_prob=float(probs[pred]),
        target_class=net.class_names[target_class],
        target_logit=target_logit,
        layer_relevances=layer_rel if net.blocks else [R],
        chain=chain,
        conservation_total=float(layer_rel[0].sum()) if net.blocks else float(R.sum()),
        trained=bool(net.meta.get("trained", True)),
    )


def oracle_extract_rules(net: BirNetwork, rows, labels, min_support: int) -> list[RuleRecord]:
    """explain.extract_rules as it was before the one-product count: unit
    activity from the unfolded forward, a per-unit x per-class loop."""
    labels = np.asarray(labels)
    active = oracle_eval_forward(net, rows)[1]["post_bn"][0] > 0.0
    k = net.n_classes
    bindings, names = net.blocks[0].linear.bindings, oracle_input_names(net)[0]
    prevalence = np.array([(labels == c).mean() for c in range(k)])
    records = []
    support = active.sum(axis=0)
    for u in range(active.shape[1]):
        s = int(support[u])
        if s < min_support:
            continue
        act_labels = labels[active[:, u]]
        for c in range(k):
            if prevalence[c] == 0.0:
                continue
            hits = int((act_labels == c).sum())
            records.append(RuleRecord(
                unit=u, source=int(bindings.source[u]), target=int(bindings.target[u]),
                btype=TYPES[bindings.btype[u]], rule=rule_text(bindings, u, names),
                class_index=c, class_name=net.class_names[c], precision=hits / s,
                recall=hits / int((labels == c).sum()),
                lift=float(hits / s / prevalence[c]), support=s,
            ))
    records.sort(key=lambda r: (r.class_index, -r.precision, -r.lift, r.unit))
    return records
