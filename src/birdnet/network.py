"""The implication-masked network: layers, forward/backward, accounting, serialization.

Each hidden unit of a masked layer binds to exactly the two input features of
one mined implication, so the dense h x d weight view has at most 2h nonzeros
(active fraction <= 2/d). Gradients are hand-derived; there is no autodiff.

Eval mode, the one inference path of predict, batch, relevance traces and
rules, runs each block as a gather-FMA-ReLU with BatchNorm folded in
(`BirBlock.fold`). A block has no bias: its BatchNorm shift is the offset,
and in a relevance trace that shift, not a bias, absorbs no relevance. A
loaded model is read-only, so each block folds once and keeps it; a built or
training network's arrays are writeable and it refolds on every call.
A pair block's one fresh large array per call is its output: rows go in
chunks of about 256 KiB of output, each gathered straight into its slice.

Train mode keeps every activation row-major: a pair layer gathers its two
input columns once per step with `take` and its backward reuses them, and
its input gradient is one `np.bincount` scatter. Once `flat_params` is
called (the trainer does), every trainable parameter is a view of one flat
float64 buffer owned by the network, so an optimizer step is a few
whole-buffer operations. A network that is only loaded and served never
builds that buffer.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from birdnet.mining import TYPES, EdgeTable

__all__ = [
    "PairLinear",
    "DenseLinear",
    "BatchNorm",
    "BirBlock",
    "Fold",
    "DenseHead",
    "BirNetwork",
    "build_bir_layer",
    "active_param_count",
    "to_matched_mlp",
    "save_network",
    "load_network",
]

INIT_SCALE = 0.5  # magnitude scale for type-aware init: |N(0,1)| * INIT_SCALE

MODEL_FORMAT = "birdnet-model-v4"

BN_EPS = 1e-5  # BatchNorm variance floor
BN_MOMENTUM = 0.1  # BatchNorm running-statistic update rate

_CHUNK_BYTES = 1 << 18  # output bytes per row chunk of a pair block's eval gather

# Sign of (source weight, target weight) per implication type code T0..T5.
_TYPE_SIGNS = np.array(
    [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (1.0, -1.0)]
)


class PairLinear:
    """Masked linear map: unit k sees only input columns src[k] and tgt[k].

    Only the two active weights per unit are stored, so masked positions are
    exactly zero by construction, at every step and across serialization.
    In a block, src and tgt are its bindings' own source and target columns,
    never copies.
    """

    kind = "pair"
    PARAMS = (("w_src", True), ("w_tgt", True))  # (name, decayed)

    def __init__(self, src, tgt, w_src, w_tgt, in_dim):
        self.src = np.asarray(src, dtype=np.int64)
        self.tgt = np.asarray(tgt, dtype=np.int64)
        self.w_src = np.asarray(w_src, dtype=np.float64)
        self.w_tgt = np.asarray(w_tgt, dtype=np.float64)
        self.in_dim = int(in_dim)
        arrays = (self.src, self.tgt, self.w_src, self.w_tgt)
        if self.src.ndim != 1 or len({a.shape for a in arrays}) != 1:
            raise ValueError("pair layer needs 1-D src, tgt and weights of one length")
        idx = np.concatenate([self.src, self.tgt])
        if np.any((idx < 0) | (idx >= self.in_dim)):
            raise ValueError(f"pair layer indexes outside input dim {self.in_dim}")
        if np.any(self.src == self.tgt):
            raise ValueError("pair layer binds a unit to one input twice (self-loop)")

    @property
    def out_dim(self) -> int:
        return self.src.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return self.forward_saved(x)[0]

    def forward_saved(self, x: np.ndarray):
        """(z, saved): z from row-major gathers of each unit's two inputs,
        and the gathers, which `backward` reuses."""
        if x.shape[1] != self.in_dim:
            raise ValueError(f"layer expects {self.in_dim} inputs, got {x.shape[1]}")
        xs, xt = x.take(self.src, axis=1), x.take(self.tgt, axis=1)
        z = xs * self.w_src
        z += xt * self.w_tgt
        return z, (xs, xt)

    def folded(self, x: np.ndarray, fold: Fold) -> np.ndarray:
        """(W x) * scale + shift from the fold's gather index and scaled weights.

        The output is the one fresh large array: rows go in chunks of about
        `_CHUNK_BYTES` of output, each gathering both inputs of every unit
        with one `take` and summing them straight into its slice, so the one
        temporary per chunk stays in cache instead of being faulted in and
        freed at full batch size. A 1-row request is one chunk."""
        m, h = x.shape[0], self.out_dim
        step = max(1, _CHUNK_BYTES // (8 * max(h, 1)))
        z = np.empty((m, h))
        for r in range(0, m, step):
            g = x[r : r + step].take(fold.idx, axis=1)
            g *= fold.w
            np.add(g[:, :h], g[:, h:], out=z[r : r + step])
        z += fold.shift
        return z

    def backward(self, dz: np.ndarray, saved, input_grad: bool = True):
        """(dx or None, grads) from `forward_saved`'s gathers. dx is one
        scatter of all (row, unit) terms, each input's sources before its
        targets, in unit order: the order of two `np.add.at` passes."""
        xs, xt = saved
        grads = {"w_src": (dz * xs).sum(axis=0), "w_tgt": (dz * xt).sum(axis=0)}
        if not input_grad:
            return None, grads
        m, h = dz.shape
        terms = np.empty((m, 2 * h))
        np.multiply(dz, self.w_src, out=terms[:, :h])
        np.multiply(dz, self.w_tgt, out=terms[:, h:])
        bins = np.arange(0, m * self.in_dim, self.in_dim)[:, None] + np.concatenate([self.src, self.tgt])
        dx = np.bincount(bins.ravel(), terms.ravel(), minlength=m * self.in_dim)
        return dx.reshape(m, self.in_dim), grads

    def mask(self) -> np.ndarray:
        M = np.zeros((self.out_dim, self.in_dim), dtype=bool)
        M[np.arange(self.out_dim), self.src] = True
        M[np.arange(self.out_dim), self.tgt] = True
        return M


class DenseLinear:
    """Plain dense linear map: a classifier-head layer, with bias b, or a
    matched-MLP block, with none (its BatchNorm shift is the offset)."""

    kind = "dense"

    def __init__(self, W, b=None):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = None if b is None else np.asarray(b, dtype=np.float64)
        if self.W.ndim != 2 or (self.b is not None and self.b.shape != self.W.shape[:1]):
            raise ValueError("dense layer needs a 2-D weight and at most one bias per output")
        self.PARAMS = (("W", True),) if self.b is None else (("W", True), ("b", False))

    @classmethod
    def init(cls, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        # Kaiming-style fan-in scaled normal.
        W = rng.standard_normal((out_dim, in_dim)) * np.sqrt(2.0 / in_dim)
        return cls(W, np.zeros(out_dim) if bias else None)

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.in_dim:
            raise ValueError(f"layer expects {self.in_dim} inputs, got {x.shape[1]}")
        return x @ self.W.T if self.b is None else x @ self.W.T + self.b

    def folded(self, x: np.ndarray, fold: Fold) -> np.ndarray:
        """(W x) * scale + shift, scaled on the output: no out x in folded weight."""
        z = x @ self.W.T
        z *= fold.scale
        z += fold.shift
        return z

    def forward_saved(self, x: np.ndarray):
        return self.forward(x), x

    def backward(self, dz: np.ndarray, x: np.ndarray, input_grad: bool = True):
        grads = {"W": dz.T @ x}
        if self.b is not None:
            grads["b"] = dz.sum(axis=0)
        return (dz @ self.W if input_grad else None), grads


class BatchNorm:
    PARAMS = (("gamma", False), ("beta", False))

    def __init__(self, dim: int):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, z: np.ndarray, mode: str):
        if mode == "train":
            mean = z.mean(axis=0)
            xhat = z - mean
            var = (xhat * xhat).sum(axis=0) / z.shape[0]  # z.var(axis=0), centred once
            self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
            self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        else:  # "eval": running statistics, treated as constants
            xhat = z - self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        y = self.gamma * xhat
        y += self.beta
        return y, (xhat, inv_std, mode)

    def backward(self, dy: np.ndarray, cache):
        xhat, inv_std, mode = cache
        dgamma = (dy * xhat).sum(axis=0)
        dbeta = dy.sum(axis=0)
        dxhat = dy * self.gamma
        if mode == "train":  # (inv_std/m) (m dxhat - sum dxhat - xhat sum(dxhat xhat))
            m = dy.shape[0]
            dz = m * dxhat
            dz -= dxhat.sum(axis=0)
            dz -= xhat * (dxhat * xhat).sum(axis=0)
            dz *= inv_std / m
        else:
            dz = dxhat * inv_std
        return dz, {"gamma": dgamma, "beta": dbeta}

    def set_stats(self, mean: np.ndarray, var: np.ndarray) -> None:
        self.running_mean = np.asarray(mean, dtype=np.float64).copy()
        self.running_var = np.asarray(var, dtype=np.float64).copy()


class Fold(NamedTuple):
    """Eval-mode BN(W x) = (W x) * scale + shift, scale = gamma / sqrt(running_var
    + eps), shift = beta - running_mean * scale; a pair block's gather index (src,
    then tgt) and weights times scale in that order, a dense block's None."""

    scale: np.ndarray
    shift: np.ndarray
    idx: np.ndarray | None
    w: np.ndarray | None


@dataclass
class BirBlock:
    """One hidden stage: (masked or dense) linear, BatchNorm, ReLU. A pair
    block's wiring is its bindings' source and target columns."""

    linear: PairLinear | DenseLinear
    bn: BatchNorm
    bindings: EdgeTable  # unit k <-> implication k (over the block input space)
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def fold(self) -> Fold:
        """The block's `Fold`, kept and reused only while the block holds the
        very same BatchNorm, weight and wiring arrays and none is writeable,
        as in a loaded model. It cannot go stale: a read-only array cannot
        change in place, and every library writer (`flat_params` and so
        `train`, `restore`, `set_stats`, a train-mode BatchNorm step) installs
        fresh writeable arrays. A writeable network refolds on every call."""
        bn, lin = self.bn, self.linear
        pair = isinstance(lin, PairLinear)
        inputs = (bn.gamma, bn.beta, bn.running_mean, bn.running_var)
        inputs += (lin.w_src, lin.w_tgt, lin.src, lin.tgt) if pair else ()
        if self._kept is not None and len(self._kept[0]) == len(inputs):
            for now, then in zip(inputs, self._kept[0]):
                if now is not then or now.flags.writeable:
                    break
            else:
                return self._kept[1]
        s = bn.gamma / np.sqrt(bn.running_var + BN_EPS)
        idx = w = None
        if pair:
            idx, w = np.concatenate([lin.src, lin.tgt]), np.concatenate([lin.w_src * s, lin.w_tgt * s])
        fold = Fold(s, bn.beta - bn.running_mean * s, idx, w)
        for arr in fold:
            if arr is not None:
                arr.flags.writeable = False  # a caller cannot edit a kept fold
        self._kept = (inputs, fold)
        return fold


@dataclass
class DenseHead:
    layers: list[DenseLinear]  # ReLU between all but after the last


class BirNetwork:
    """Ordered stack of implication-masked blocks plus a dense classifier head."""

    def __init__(self, input_dim, feature_names, blocks, head, class_names, meta=None):
        self.input_dim = int(input_dim)
        self.feature_names = list(feature_names)
        self.blocks: list[BirBlock] = list(blocks)
        self.head: DenseHead = head
        self.class_names = list(class_names)
        self.meta = dict(meta or {})
        width = self.input_dim
        for lin in [blk.linear for blk in self.blocks] + self.head.layers:
            if lin.in_dim != width:
                raise ValueError(f"layer widths do not chain: {width} feed {lin.in_dim} inputs")
            width = lin.out_dim
        self._flat = None  # packed by the first `flat_params` call

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def n_classes(self) -> int:
        return self.head.layers[-1].out_dim

    def check_input(self, X) -> np.ndarray:
        """X as a float64 batch of the input width with only finite values."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ValueError(f"expected batch of width {self.input_dim}, got {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("input rows hold NaN or infinite values")
        return X

    def forward(self, X: np.ndarray, mode: str = "eval", rng: np.random.Generator | None = None,
                dropout: float = 0.0):
        """Returns (logits, cache), a cache that backward accepts in either
        mode. Modes: 'train' (batch BN stats, `dropout` after each block's
        ReLU; the cache keeps what each linear map's backward reuses),
        'eval' (running stats folded into each block, deterministic; the
        cache keeps each block's input and `Fold`, no other BN state)."""
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown mode {mode!r}")
        X = self.check_input(X)
        if mode == "train" and X.shape[0] < 2:
            raise ValueError("train-mode forward needs a batch of at least 2 rows")
        if mode == "train" and dropout > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        cache = {"mode": mode, "post_bn": [], "head_in": []}
        if mode == "train":
            cache.update(saved=[], bn=[], drop=[], dropout=dropout)
        else:
            cache.update(block_in=[], fold=[])
        a = X
        for blk in self.blocks:
            if mode == "eval":
                cache["block_in"].append(a)
                fold = blk.fold()
                cache["fold"].append(fold)
                a = blk.linear.folded(a, fold)
                cache["post_bn"].append(np.maximum(a, 0.0, out=a))
                continue
            z, saved = blk.linear.forward_saved(a)
            cache["saved"].append(saved)
            y, bn_cache = blk.bn.forward(z, mode)
            cache["bn"].append(bn_cache)
            a = np.maximum(y, 0.0, out=y)
            cache["post_bn"].append(a)  # post-ReLU, pre-dropout
            if dropout > 0.0:
                keep = rng.random(a.shape) >= dropout
                a = a * keep
                a /= 1.0 - dropout
                cache["drop"].append(keep)
            else:
                cache["drop"].append(None)
        for i, lay in enumerate(self.head.layers):
            cache["head_in"].append(a)
            a = lay.forward(a)
            if i < len(self.head.layers) - 1:
                a = np.maximum(a, 0.0, out=a)
        return a, cache

    def backward(self, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients of the cached forward; keys match param paths.
        No gradient is formed for the network input."""
        grads: dict[str, np.ndarray] = {}
        da = np.asarray(dlogits, dtype=np.float64)
        for i in reversed(range(len(self.head.layers))):
            x = cache["head_in"][i]
            da, g = self.head.layers[i].backward(da, x, input_grad=i > 0 or bool(self.blocks))
            for name, arr in g.items():
                grads[f"head{i}.{name}"] = arr
            if i > 0:
                da *= x > 0.0
        for ell in reversed(range(len(self.blocks))):
            blk = self.blocks[ell]
            if cache["mode"] == "train":
                saved, bn_cache = cache["saved"][ell], cache["bn"][ell]
                keep = cache["drop"][ell]
            else:  # the eval cache keeps only BatchNorm's fold: recompute its cache from x
                z, saved = blk.linear.forward_saved(cache["block_in"][ell])
                keep, (_, bn_cache) = None, blk.bn.forward(z, "eval")
            if keep is not None:
                da *= keep
                da /= 1.0 - cache["dropout"]
            da *= cache["post_bn"][ell] > 0.0  # ReLU gate
            da, g_bn = blk.bn.backward(da, bn_cache)
            for name, arr in g_bn.items():
                grads[f"block{ell}.bn.{name}"] = arr
            da, g_lin = blk.linear.backward(da, saved, input_grad=ell > 0)
            for name, arr in g_lin.items():
                grads[f"block{ell}.{name}"] = arr
        return grads

    def _slots(self):
        """(path, owner, attribute, weight_decay_applies) per trainable parameter."""
        for ell, blk in enumerate(self.blocks):
            for name, decay in blk.linear.PARAMS:
                yield f"block{ell}.{name}", blk.linear, name, decay
            for name, decay in blk.bn.PARAMS:
                yield f"block{ell}.bn.{name}", blk.bn, name, decay
        for i, lay in enumerate(self.head.layers):
            for name, decay in lay.PARAMS:
                yield f"head{i}.{name}", lay, name, decay

    def params(self):
        """Yields (path, array, weight_decay_applies)."""
        for path, owner, name, decay in self._slots():
            yield path, getattr(owner, name), decay

    def _pack(self) -> None:
        """Copies every trainable parameter into one new flat buffer, decayed
        parameters first, and rebinds each layer attribute to its view."""
        slots = sorted(self._slots(), key=lambda slot: not slot[3])  # decayed first, order kept
        arrays = [getattr(owner, name) for _, owner, name, _ in slots]
        self._flat = np.empty(sum(arr.size for arr in arrays))
        self._flat_paths = [path for path, *_ in slots]
        self._n_decay = sum(arr.size for arr, slot in zip(arrays, slots) if slot[3])
        start = 0
        for (_, owner, name, _), arr in zip(slots, arrays):
            view = self._flat[start : start + arr.size].reshape(arr.shape)
            view[...] = arr
            setattr(owner, name, view)
            start += arr.size

    def flat_params(self) -> tuple[np.ndarray, int, list[str]]:
        """(buffer, n_decay, paths): the float64 buffer that every trainable
        parameter is a view of, laid out in `paths` order, the first n_decay
        entries being the weight-decayed ones. Packed on first use, and again
        when a parameter array has been replaced since: each parameter is
        copied in and its layer attribute rebound to its view."""
        if self._flat is None or any(arr.base is not self._flat for _, arr, _ in self.params()):
            self._pack()
        return self._flat, self._n_decay, self._flat_paths

    def snapshot(self) -> dict[str, np.ndarray]:
        state = {p: arr.copy() for p, arr, _ in self.params()}
        for ell, blk in enumerate(self.blocks):
            state[f"block{ell}.bn.running_mean"] = blk.bn.running_mean.copy()
            state[f"block{ell}.bn.running_var"] = blk.bn.running_var.copy()
        return state

    def restore(self, state: dict[str, np.ndarray]) -> None:
        self.flat_params()  # copies a loaded model's read-only arrays into the writable buffer
        for p, arr, _ in self.params():
            arr[...] = state[p]
        for ell, blk in enumerate(self.blocks):
            blk.bn.running_mean = state[f"block{ell}.bn.running_mean"].copy()
            blk.bn.running_var = state[f"block{ell}.bn.running_var"].copy()


def build_bir_layer(spec: EdgeTable, d: int, seed_or_rng) -> BirBlock:
    """One masked block from a mined layer spec, with type-aware sign init.

    T0/T4 start both weights positive, T1 both negative, T2/T5 positive
    source and negative target, T3 the reverse; magnitudes are |N(0,1)|
    scaled by INIT_SCALE (fan-in is always 2), drawn source then target per
    unit. BN affine identity.
    """
    h = len(spec)
    if not h:
        raise ValueError("cannot build a layer from an empty implication table")
    rng = seed_or_rng if isinstance(seed_or_rng, np.random.Generator) else np.random.Generator(
        np.random.PCG64(seed_or_rng)
    )
    w = _TYPE_SIGNS[spec.btype] * np.abs(rng.standard_normal((h, 2))) * INIT_SCALE
    w_src, w_tgt = w.T.copy()
    linear = PairLinear(spec.source, spec.target, w_src, w_tgt, d)
    return BirBlock(linear=linear, bn=BatchNorm(h), bindings=spec)


def active_param_count(net: BirNetwork) -> dict[str, int]:
    """Parameter accounting: the 2 masked weights per pair unit, or a dense
    block's whole weight; totals add BatchNorm affine (2 per unit) and all
    head parameters."""
    width = 0
    bir_active = 0
    bn_params = 0
    for blk in net.blocks:
        h = blk.linear.out_dim
        width += h
        bn_params += 2 * h
        bir_active += 2 * h if isinstance(blk.linear, PairLinear) else blk.linear.W.size
    head_params = sum(lay.W.size + lay.b.size for lay in net.head.layers)
    return {
        "width": width,
        "bir_active": bir_active,
        "total_active": bir_active + bn_params + head_params,
    }


def to_matched_mlp(net: BirNetwork, seed: int) -> BirNetwork:
    """Dense counterpart: same widths, BN and head shape; the
    implication mask is removed and all weights re-initialized densely."""
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = []
    for blk in net.blocks:
        lin = DenseLinear.init(blk.linear.in_dim, blk.linear.out_dim, rng, bias=False)
        blocks.append(BirBlock(linear=lin, bn=BatchNorm(lin.out_dim), bindings=blk.bindings))
    head = DenseHead(
        layers=[DenseLinear.init(lay.in_dim, lay.out_dim, rng) for lay in net.head.layers]
    )
    meta = dict(net.meta)
    meta["matched_mlp"] = True
    return BirNetwork(net.input_dim, net.feature_names, blocks, head, net.class_names, meta)


# ---------------------------------------------------------------------------
# Serialization (single self-describing JSON file, bit-exact arrays)
# ---------------------------------------------------------------------------


def _enc(arr: np.ndarray) -> dict:
    arr = np.ascontiguousarray(arr)
    return {
        "dtype": arr.dtype.str,
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _dec(doc, key: str, part: str) -> np.ndarray:
    """The numeric array encoded at doc[key], or a ValueError naming the part."""
    try:
        obj = doc[key]
        arr = np.frombuffer(base64.b64decode(obj["data"]), dtype=np.dtype(obj["dtype"]))
        if arr.dtype.kind in "iuf":
            return arr.reshape(obj["shape"]).copy()
    except (TypeError, KeyError, ValueError):
        pass
    raise ValueError(f"{part} {key} is not an encoded array of numbers")


_LINEAR_KEYS = {"pair": ("w_src", "w_tgt"), "dense": ("W",)}
_BN_KEYS = ("gamma", "beta", "running_mean", "running_var")


def save_network(net: BirNetwork, path: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "input_dim": net.input_dim,
        "feature_names": net.feature_names,
        "class_names": net.class_names,
        "meta": net.meta,
        "blocks": [],
        "head": [],
    }
    for blk in net.blocks:
        lin, bn = blk.linear, blk.bn
        doc["blocks"].append({
            "kind": lin.kind,
            "bindings": {name: _enc(col) for name, col in vars(blk.bindings).items()},
            "bn": {k: _enc(getattr(bn, k)) for k in _BN_KEYS},
            "linear": {k: _enc(getattr(lin, k)) for k in _LINEAR_KEYS[lin.kind]},
        })
    for lay in net.head.layers:
        doc["head"].append({"W": _enc(lay.W), "b": _enc(lay.b)})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_network(path: str) -> BirNetwork:
    """Read a model file, checked as outside input: lists of encoded arrays,
    bindings within each block's input width, widths that chain, one binding per
    unit, finite numbers, a positive input width, a head, a name per input and per
    class and a meta object, or an error naming the part. A pair block is wired by
    its bindings; each block's input width is the width of the layer below. Every
    array of the loaded model is read-only, so each block folds once."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a recognized model file")
    if doc.get("format") in ("birdnet-model-v1", "birdnet-model-v2", "birdnet-model-v3"):
        raise ValueError(f"{path}: model format {doc['format']} is not read; rebuild the model")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"{path}: not a recognized model file")
    blocks = []
    width = doc.get("input_dim")
    if not (type(width) is int and width > 0):
        raise ValueError(f"{path}: input_dim is not a positive integer")
    if not (isinstance(doc.get("blocks"), list) and isinstance(doc.get("head"), list)):
        raise ValueError(f"{path}: blocks and head are not both lists")
    for ell, b in enumerate(doc["blocks"]):
        part = f"{path}: block {ell}"
        if not (isinstance(b, dict) and b.get("kind") in ("pair", "dense")
                and isinstance(b.get("bindings"), dict)):
            raise ValueError(f"{part} is not a pair or dense block with a bindings object")
        arrays = [_dec(b.get("linear"), k, f"{part} linear") for k in _LINEAR_KEYS[b["kind"]]]
        bindings = EdgeTable.from_columns({k: _dec(b["bindings"], k, f"{part} bindings")
                                           for k in b["bindings"]})
        units = len(arrays[0]) if arrays[0].ndim else 0  # w_src or W: one per unit
        if len(bindings) != units:
            raise ValueError(f"{part} has {len(bindings)} bindings for {units} units")
        idx = np.concatenate([bindings.source, bindings.target])
        if np.any((idx < 0) | (idx >= width)) or np.any(bindings.btype >= len(TYPES)):
            raise ValueError(f"{part}: a binding has a type code >= {len(TYPES)} "
                             f"or an input outside 0..{width - 1}")
        if b["kind"] == "pair":
            lin = PairLinear(bindings.source, bindings.target, *arrays, width)
        else:
            lin = DenseLinear(*arrays)
        bn = BatchNorm(lin.out_dim)
        for key in _BN_KEYS:
            arr = _dec(b.get("bn"), key, f"{part} BatchNorm")
            if arr.shape != (lin.out_dim,):
                raise ValueError(f"{part} BatchNorm {key} is not one per unit")
            setattr(bn, key, arr)
        blocks.append(BirBlock(lin, bn, bindings))
        width = lin.out_dim
    head = DenseHead(layers=[DenseLinear(*(_dec(lay, k, f"{path}: head layer {i}") for k in "Wb"))
                             for i, lay in enumerate(doc["head"])])
    if not head.layers:
        raise ValueError(f"{path}: the head has no layer")
    for key, count in (("feature_names", doc["input_dim"]), ("class_names", head.layers[-1].out_dim)):
        names = doc.get(key)
        if not (isinstance(names, list) and len(names) == count
                and all(isinstance(s, str) for s in names)):
            raise ValueError(f"{path}: {key} is not a list of {count} names")
    if not isinstance(doc.get("meta"), dict):
        raise ValueError(f"{path}: meta is not a JSON object")
    net = BirNetwork(
        doc["input_dim"], doc["feature_names"], blocks, head, doc["class_names"], doc["meta"]
    )
    if not all(np.isfinite(arr).all() for arr in net.snapshot().values()):
        raise ValueError(f"{path}: model holds NaN or infinite parameters")
    # Every array held, also a layer's own copy of a binding column that was
    # stored in another byte order.
    held = [o for blk in blocks for o in (blk.linear, blk.bn, blk.bindings)] + head.layers
    for arr in [a for o in held for a in vars(o).values() if isinstance(a, np.ndarray)]:
        arr.flags.writeable = False
    return net
