"""Mini-batch training: cross-entropy, AdamW, cosine schedule, early stopping.

All randomness (shuffling, dropout) comes from a single PCG64 generator
seeded with the config seed, so a run is reproducible bit for bit on one
thread. Masked weight positions are never stored, so they stay exactly
zero through every optimizer step, weight decay included.

A step is the network's train-mode forward, the loss and its gradient from
one softmax (`cross_entropy`), and the backward (from each block's kept
input and one ReLU-and-dropout gate, no gradient for the network input),
then AdamW on the network's flat parameter buffer: the moments are
two buffers of the same layout, and one step is a few whole-buffer
operations, weight decay on the decayed prefix only. The gradient norm for
clipping is summed array by array, in backward order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from birdnet.network import BirNetwork

__all__ = ["TrainConfig", "TrainHistory", "check_labels", "cross_entropy", "softmax", "train"]


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    epochs_max: int = 200
    batch_size: int = 64
    patience: int = 20
    clip_norm: float = 1.0
    dropout: float = 0.3
    seed: int = 42

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not (math.isfinite(self.weight_decay) and self.weight_decay >= 0.0):
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (BatchNorm needs batch statistics)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.epochs_max < 1:
            raise ValueError("epochs_max must be >= 1")
        if not self.clip_norm > 0.0:
            raise ValueError("clip_norm must be > 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,val_loss,val_acc"]
        for e, (tl, vl, va) in enumerate(zip(self.train_loss, self.val_loss, self.val_acc)):
            lines.append(f"{e},{tl!r},{vl!r},{va!r}")
        return "\n".join(lines) + "\n"


def check_labels(y, *shape: int) -> np.ndarray:
    """y as one integer class index in 0..k-1 per row of a (rows, k) shape, that of the
    scores y labels, or a ValueError."""
    if len(shape) != 2:
        raise ValueError(f"scores must be 2-D (rows, classes), got shape {shape}")
    (rows, k), y = shape, np.asarray(y)
    if y.shape != (rows,) or y.dtype.kind not in "iu" or (rows and not 0 <= y.min() <= y.max() < k):
        raise ValueError(f"labels must be {rows} integer class indices in 0..{k - 1}, one per row")
    return y


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """(loss, dloss/dlogits) from one softmax: the mean negative log softmax
    probability of the true class (log-sum-exp), and its gradient."""
    logits = np.asarray(logits, dtype=np.float64)
    y = check_labels(labels, *logits.shape)
    rows = np.arange(y.shape[0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e.sum(axis=1, keepdims=True)
    g = e / s
    g[rows, y] -= 1.0
    g /= y.shape[0]
    return float((np.log(s[:, 0]) - shifted[rows, y]).mean()), g


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def train(
    net: BirNetwork,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    cfg: TrainConfig,
) -> tuple[BirNetwork, TrainHistory]:
    """AdamW (b1=0.9, b2=0.999, eps=1e-8, decoupled decay) with cosine-annealed
    learning rate over epochs_max, global gradient-norm clipping, and early
    stopping on validation loss. Returns the net restored to its best-val
    parameters and the per-epoch history."""
    if X_val.shape[0] == 0:
        raise ValueError("the validation set must be non-empty")
    n, k = X_train.shape[0], net.n_classes
    y_train, y_val = check_labels(y_train, n, k), check_labels(y_val, X_val.shape[0], k)
    if n < 2:
        raise ValueError(f"the training set has {n} rows; BatchNorm needs at least 2 rows per batch")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    flat, n_decay, paths = net.flat_params()
    m_state = np.zeros_like(flat)
    v_state = np.zeros_like(flat)
    decayed = flat[:n_decay]
    b1, b2, eps = 0.9, 0.999, 1e-8
    t = 0
    history = TrainHistory()
    best_loss = math.inf
    best_state = None
    since_best = 0

    for epoch in range(cfg.epochs_max):
        lr = cfg.learning_rate * 0.5 * (1.0 + math.cos(math.pi * epoch / cfg.epochs_max))
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if idx.shape[0] < 2:
                continue  # BatchNorm cannot normalize a singleton batch
            xb, yb = X_train[idx], y_train[idx]
            logits, cache = net.forward(xb, mode="train", rng=rng, dropout=cfg.dropout)
            loss, dlogits = cross_entropy(logits, yb)
            grads = net.backward(cache, dlogits)
            gnorm = _global_norm(grads)
            g = np.concatenate([grads[path].ravel() for path in paths])
            if gnorm > cfg.clip_norm:
                g *= cfg.clip_norm / gnorm
            t += 1
            bc1 = 1.0 - b1**t
            bc2 = 1.0 - b2**t
            m_state *= b1
            m_state += (1 - b1) * g
            v_state *= b2
            v_state += (1 - b2) * g * g
            step = lr * (m_state / bc1) / (np.sqrt(v_state / bc2) + eps)
            decayed -= lr * cfg.weight_decay * decayed
            flat -= step
            epoch_loss += loss
            n_batches += 1
        history.train_loss.append(epoch_loss / n_batches)

        val_logits = net.forward(X_val, mode="eval")[0]
        vl = cross_entropy(val_logits, y_val)[0]
        va = float((val_logits.argmax(axis=1) == y_val).mean())
        history.val_loss.append(vl)
        history.val_acc.append(va)
        if vl < best_loss:
            best_loss = vl
            best_state = net.snapshot()
            history.best_epoch = epoch
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                history.stopped_early = True
                break

    if best_state is not None:
        net.restore(best_state)
    return net, history
