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
Construction, training and eval run one pair kernel, whose one fresh large
array per call is its output, gathered in row chunks of about 256 KiB.

Eval mode is inference only: `backward` takes a train-mode cache. Either
cache keeps each block's input, which a pair layer's backward gathers from;
a train cache adds one bool gate per block, ReLU and dropout together. A
pair layer's input gradient is one `np.bincount` scatter. Once `flat_params`
is called (the trainer does), every trainable parameter is a view of one
flat float64 buffer owned by the network, so an optimizer step is a few
whole-buffer operations. A network that is only loaded and served never
builds that buffer.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from birdnet.mining import EdgeTable

__all__ = [
    "PairLinear",
    "DenseLinear",
    "BatchNorm",
    "BirBlock",
    "Fold",
    "BirNetwork",
    "build_bir_layer",
    "active_param_count",
    "to_matched_mlp",
    "save_network",
    "load_network",
]

INIT_SCALE = 0.5  # magnitude scale for type-aware init: |N(0,1)| * INIT_SCALE

MODEL_FORMAT = "birdnet-model-v6"

BN_EPS = 1e-5  # BatchNorm variance floor
BN_MOMENTUM = 0.1  # BatchNorm running-statistic update rate

_CHUNK_BYTES = 1 << 18  # output bytes per row chunk of a pair block's eval gather

# Sign of (source weight, target weight) per implication type code T0..T5.
_TYPE_SIGNS = np.array(
    [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0), (1.0, -1.0)]
)


class PairLinear:
    """Masked linear map: unit k is binding k, and sees only input columns src[k] and tgt[k].

    Only the two active weights per unit are stored, so masked positions are
    exactly zero by construction, at every step and across serialization.
    The layer owns its bindings: src and tgt are their own source and target
    columns, copied only from a file that stores them in another byte order.
    """

    kind = "pair"
    PARAMS = (("w_src", True), ("w_tgt", True))  # (name, decayed)

    def __init__(self, bindings: EdgeTable, w_src, w_tgt, in_dim):
        self.bindings = bindings
        self.src = np.asarray(bindings.source, dtype=np.int64)
        self.tgt = np.asarray(bindings.target, dtype=np.int64)
        self.w_src = np.asarray(w_src, dtype=np.float64)
        self.w_tgt = np.asarray(w_tgt, dtype=np.float64)
        self.in_dim = int(in_dim)
        if len({a.shape for a in (self.src, self.w_src, self.w_tgt)}) != 1:
            raise ValueError("pair layer needs one weight pair per binding")
        if np.concatenate([self.src, self.tgt]).max(initial=-1) >= self.in_dim:  # EdgeTable holds inputs >= 0
            raise ValueError(f"pair layer indexes outside input dim {self.in_dim}")

    @property
    def out_dim(self) -> int:
        return self.src.shape[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """W x by `folded`'s chunked gather, keeping no gathers."""
        if x.shape[1] != self.in_dim:
            raise ValueError(f"layer expects {self.in_dim} inputs, got {x.shape[1]}")
        return self._gather_sum(x, np.concatenate([self.src, self.tgt]), np.concatenate([self.w_src, self.w_tgt]))

    def folded(self, x: np.ndarray, fold: Fold) -> np.ndarray:
        """(W x) * scale + shift from the fold's gather index and scaled weights."""
        z = self._gather_sum(x, fold.idx, fold.w)
        z += fold.shift
        return z

    def _gather_sum(self, x: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
        """(x_s * w_s) + (x_t * w_t) per unit, for idx = (src, tgt) and w = (w_s, w_t).

        The output is the one fresh large array: rows go in chunks of about
        `_CHUNK_BYTES` of output, each gathering both inputs of every unit
        with one `take` and summing them straight into its slice, so the one
        temporary per chunk stays in cache instead of being faulted in and
        freed at full batch size. A 1-row request is one chunk."""
        m, h = x.shape[0], self.out_dim
        step = max(1, _CHUNK_BYTES // (8 * max(h, 1)))
        z = np.empty((m, h))
        for r in range(0, m, step):
            g = x[r : r + step].take(idx, axis=1)
            g *= w
            np.add(g[:, :h], g[:, h:], out=z[r : r + step])
            del g  # freed before the next chunk's gather
        return z

    def backward(self, dz: np.ndarray, x: np.ndarray, input_grad: bool = True):
        """(dx or None, grads) for the input x that `forward` read, whose two
        columns per unit are gathered here. dx is one scatter of all (row,
        unit) terms, each input's sources before its targets, in unit order:
        the order of two `np.add.at` passes."""
        m, h = dz.shape
        idx = np.concatenate([self.src, self.tgt])
        g = x.take(idx, axis=1)
        grads = {"w_src": (dz * g[:, :h]).sum(axis=0), "w_tgt": (dz * g[:, h:]).sum(axis=0)}
        del g  # freed before the scatter's arrays
        if not input_grad:
            return None, grads
        terms = np.empty((m, 2 * h))
        np.multiply(dz, self.w_src, out=terms[:, :h])
        np.multiply(dz, self.w_tgt, out=terms[:, h:])
        bins = np.arange(0, m * self.in_dim, self.in_dim)[:, None] + idx
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

    def backward(self, dz: np.ndarray, x: np.ndarray, input_grad: bool = True):
        grads = {"W": dz.T @ x}
        if self.b is not None:
            grads["b"] = dz.sum(axis=0)
        return (dz @ self.W if input_grad else None), grads


class BatchNorm:
    """Train-mode BatchNorm; its eval form is the block's `Fold`."""

    PARAMS = (("gamma", False), ("beta", False))

    def __init__(self, dim: int):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def forward(self, z: np.ndarray):
        mean = z.mean(axis=0)
        xhat = z - mean
        var = (xhat * xhat).sum(axis=0) / z.shape[0]  # z.var(axis=0), centred once
        self.running_mean = (1 - BN_MOMENTUM) * self.running_mean + BN_MOMENTUM * mean
        self.running_var = (1 - BN_MOMENTUM) * self.running_var + BN_MOMENTUM * var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        y = self.gamma * xhat
        y += self.beta
        return y, (xhat, inv_std)

    def backward(self, dy: np.ndarray, cache):
        """(dz, grads): dz = (inv_std/m) (m dxhat - sum dxhat - xhat sum(dxhat xhat))."""
        xhat, inv_std = cache
        dgamma = (dy * xhat).sum(axis=0)
        dbeta = dy.sum(axis=0)
        dxhat = dy * self.gamma
        m = dy.shape[0]
        dz = m * dxhat
        dz -= dxhat.sum(axis=0)
        dz -= xhat * (dxhat * xhat).sum(axis=0)
        dz *= inv_std / m
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
    """One hidden stage: (masked or dense) linear, BatchNorm, ReLU. Only a pair
    layer has bindings, so only its units have rules."""

    linear: PairLinear | DenseLinear
    bn: BatchNorm
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


class BirNetwork:
    """Ordered stack of implication-masked blocks plus a dense classifier head,
    a list of `DenseLinear` layers with a ReLU after each but the last.
    Every network, built, copied or loaded, is checked here: the widths chain from
    the number of feature names, and the head has one output per class name."""

    def __init__(self, feature_names, blocks, head, class_names, meta=None):
        self.feature_names = list(feature_names)
        self.input_dim = len(self.feature_names)
        self.blocks: list[BirBlock] = list(blocks)
        self.head: list[DenseLinear] = list(head)
        self.class_names = list(class_names)
        self.meta = dict(meta or {})
        if not self.head:
            raise ValueError("the head has no layer")
        width = self.input_dim
        for lin in [blk.linear for blk in self.blocks] + self.head:
            if lin.in_dim != width:
                raise ValueError(f"layer widths do not chain: {width} feed {lin.in_dim} inputs")
            width = lin.out_dim
        if width != len(self.class_names):
            raise ValueError(f"the head has {width} outputs for {len(self.class_names)} class names")
        self._flat = None  # packed by the first `flat_params` call

    @property
    def depth(self) -> int:
        return len(self.blocks)

    @property
    def n_classes(self) -> int:
        return self.head[-1].out_dim

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
        """Returns (logits, cache). Either cache keeps each activation once, as
        a block's or a head layer's input. Modes: 'train' (batch BN stats,
        `dropout` after each block's ReLU; the cache is what `backward` takes,
        and adds each block's BatchNorm state and its gate, the bool of
        post-ReLU > 0 and, with dropout, kept), 'eval' (inference only: running
        stats folded into each block, deterministic; the cache adds each
        `Fold`, which relevance traces read). Logits that overflow raise a
        ValueError in either mode, with no numpy warning."""
        if mode not in ("train", "eval"):
            raise ValueError(f"unknown mode {mode!r}")
        X = self.check_input(X)
        if mode == "train" and X.shape[0] < 2:
            raise ValueError("train-mode forward needs a batch of at least 2 rows")
        if mode == "train" and dropout > 0.0 and rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        cache = {"mode": mode, "block_in": [], "head_in": []}
        if mode == "train":
            cache.update(bn=[], gate=[], dropout=dropout)
        else:
            cache.update(fold=[])
        a = X
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error below
            for blk in self.blocks:
                cache["block_in"].append(a)
                if mode == "eval":
                    fold = blk.fold()
                    cache["fold"].append(fold)
                    a = blk.linear.folded(a, fold)
                    np.maximum(a, 0.0, out=a)
                    continue
                y, bn_cache = blk.bn.forward(blk.linear.forward(a))
                cache["bn"].append(bn_cache)
                a = np.maximum(y, 0.0, out=y)
                gate = a > 0.0  # the ReLU's gate, and dropout's below
                if dropout > 0.0:
                    keep = rng.random(a.shape) >= dropout
                    gate &= keep
                    a = a * keep
                    a /= 1.0 - dropout
                cache["gate"].append(gate)
            for i, lay in enumerate(self.head):
                cache["head_in"].append(a)
                a = lay.forward(a)
                if i < len(self.head) - 1:
                    a = np.maximum(a, 0.0, out=a)
        if not np.isfinite(a).all():
            raise ValueError("the network's logits are not finite: an input is too large for its weights")
        return a, cache

    def backward(self, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Exact gradients of a train-mode forward, from its cache; keys match
        param paths. No gradient is formed for the network input."""
        if cache["mode"] != "train":
            raise ValueError("backward needs the cache of a train-mode forward")
        grads: dict[str, np.ndarray] = {}
        da = np.asarray(dlogits, dtype=np.float64)
        for i in reversed(range(len(self.head))):
            x = cache["head_in"][i]
            da, g = self.head[i].backward(da, x, input_grad=i > 0 or bool(self.blocks))
            for name, arr in g.items():
                grads[f"head{i}.{name}"] = arr
            if i > 0:
                da *= x > 0.0
        for ell in reversed(range(len(self.blocks))):
            blk = self.blocks[ell]
            da *= cache["gate"][ell]
            da /= 1.0 - cache["dropout"]  # exact when there is no dropout
            da, g_bn = blk.bn.backward(da, cache["bn"][ell])
            for name, arr in g_bn.items():
                grads[f"block{ell}.bn.{name}"] = arr
            da, g_lin = blk.linear.backward(da, cache["block_in"][ell], input_grad=ell > 0)
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
        for i, lay in enumerate(self.head):
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


def build_bir_layer(spec: EdgeTable, d: int, rng: np.random.Generator) -> BirBlock:
    """One masked block from a mined layer spec, with type-aware sign init.

    T0/T4 start both weights positive, T1 both negative, T2/T5 positive
    source and negative target, T3 the reverse; magnitudes are |N(0,1)|
    scaled by INIT_SCALE (fan-in is always 2), drawn source then target per
    unit. BN affine identity.
    """
    h = len(spec)
    if not h:
        raise ValueError("cannot build a layer from an empty implication table")
    w = _TYPE_SIGNS[spec.btype] * np.abs(rng.standard_normal((h, 2))) * INIT_SCALE
    w_src, w_tgt = w.T.copy()
    return BirBlock(linear=PairLinear(spec, w_src, w_tgt, d), bn=BatchNorm(h))


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
    head_params = sum(lay.W.size + lay.b.size for lay in net.head)
    return {
        "width": width,
        "bir_active": bir_active,
        "total_active": bir_active + bn_params + head_params,
    }


def to_matched_mlp(net: BirNetwork, seed: int) -> BirNetwork:
    """Dense counterpart: same widths, BN and head shape; the implication
    mask, and so every rule, is removed and all weights re-initialized densely."""
    rng = np.random.Generator(np.random.PCG64(seed))
    blocks = []
    for blk in net.blocks:
        lin = DenseLinear.init(blk.linear.in_dim, blk.linear.out_dim, rng, bias=False)
        blocks.append(BirBlock(linear=lin, bn=BatchNorm(lin.out_dim)))
    head = [DenseLinear.init(lay.in_dim, lay.out_dim, rng) for lay in net.head]
    return BirNetwork(net.feature_names, blocks, head, net.class_names, {**net.meta, "matched_mlp": True})


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
        "feature_names": net.feature_names,
        "class_names": net.class_names,
        "meta": net.meta,
        "blocks": [],
        "head": [{"W": _enc(lay.W), "b": _enc(lay.b)} for lay in net.head],
    }
    for blk in net.blocks:
        lin, bn = blk.linear, blk.bn
        pair = {"bindings": {k: _enc(col) for k, col in vars(lin.bindings).items()}} if lin.kind == "pair" else {}
        doc["blocks"].append({
            "kind": lin.kind,
            "bn": {k: _enc(getattr(bn, k)) for k in _BN_KEYS},
            "linear": {k: _enc(getattr(lin, k)) for k in _LINEAR_KEYS[lin.kind]},
            **pair,
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_network(path: str) -> BirNetwork:
    """Read a model file of format v6, v5 or v4 (v4's `input_dim` and seventh binding
    column are derived, and not read, nor is a dense block's v4 or v5 `bindings`). This
    checks the JSON's shape and that every number is finite; the edge tables, layers and
    network constructor check the rest. Any error is a ValueError under the file's name.
    A pair layer is wired by its bindings; every array is read-only, so each block folds once."""
    with open(path, encoding="utf-8") as fh:
        try:
            return _decode_network(json.load(fh))
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None


def _decode_network(doc) -> BirNetwork:
    if not isinstance(doc, dict):
        raise ValueError("not a recognized model file")
    if doc.get("format") in ("birdnet-model-v1", "birdnet-model-v2", "birdnet-model-v3"):
        raise ValueError(f"model format {doc['format']} is not read; rebuild the model")
    if doc.get("format") not in (MODEL_FORMAT, "birdnet-model-v5", "birdnet-model-v4"):
        raise ValueError("not a recognized model file")
    for key in ("feature_names", "class_names"):
        names = doc.get(key)
        if not (isinstance(names, list) and all(isinstance(s, str) for s in names)):
            raise ValueError(f"{key} is not a list of names")
    if not isinstance(doc.get("meta"), dict):
        raise ValueError("meta is not a JSON object")
    if not (isinstance(doc.get("blocks"), list) and isinstance(doc.get("head"), list)):
        raise ValueError("blocks and head are not both lists")
    blocks = []
    width = len(doc["feature_names"])
    for ell, b in enumerate(doc["blocks"]):
        part = f"block {ell}"
        if not (isinstance(b, dict) and b.get("kind") in ("pair", "dense")):
            raise ValueError(f"{part} is not a pair or dense block")
        arrays = [_dec(b.get("linear"), k, f"{part} linear") for k in _LINEAR_KEYS[b["kind"]]]
        if b["kind"] == "pair":
            bindings = EdgeTable(*(_dec(b.get("bindings"), f.name, f"{part} bindings") for f in fields(EdgeTable)))
            lin = PairLinear(bindings, *arrays, width)
        else:
            lin = DenseLinear(*arrays)
        bn = BatchNorm(lin.out_dim)
        for key in _BN_KEYS:
            arr = _dec(b.get("bn"), key, f"{part} BatchNorm")
            if arr.shape != (lin.out_dim,):
                raise ValueError(f"{part} BatchNorm {key} is not one per unit")
            setattr(bn, key, arr)
        blocks.append(BirBlock(lin, bn))
        width = lin.out_dim
    head = [DenseLinear(*(_dec(lay, k, f"head layer {i}") for k in "Wb")) for i, lay in enumerate(doc["head"])]
    net = BirNetwork(doc["feature_names"], blocks, head, doc["class_names"], doc["meta"])
    # One walk over every array held, also a layer's own copy of a binding
    # column that was stored in another byte order: finite, then read-only.
    held = [o for blk in blocks for o in (blk.linear, blk.bn)] + head
    held += [o.bindings for o in held if isinstance(o, PairLinear)]
    for arr in [a for o in held for a in vars(o).values() if isinstance(a, np.ndarray)]:
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise ValueError("model holds NaN or infinite numbers")
        arr.flags.writeable = False
    return net
