import math

import numpy as np
import pytest

from birdnet.builder import build_birdnet
from birdnet.mining import MiningConfig
from birdnet.trainer import (
    TrainConfig,
    TrainHistory,
    cross_entropy,
    cross_entropy_grad,
    softmax,
    train,
)
from helpers import dense_weight, planted_pair_data, random_pair_net


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((3, 5))
        labels = np.array([0, 2, 4])
        assert cross_entropy(logits, labels) == pytest.approx(math.log(5), rel=1e-12)

    def test_hand_example(self):
        # logits (1, 0), label 0 -> -ln(e / (e + 1)) = 0.31326
        assert cross_entropy(np.array([[1.0, 0.0]]), np.array([0])) == pytest.approx(
            0.31326, abs=1e-5
        )

    def test_overflow_stability(self):
        logits = np.array([[1e4, 0.0], [-1e4, 0.0]])
        loss = cross_entropy(logits, np.array([0, 0]))
        assert math.isfinite(loss)
        assert loss == pytest.approx(5000.0, rel=1e-6)

    def test_label_range_check(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax(rng.normal(size=(6, 4)) * 50)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 3))
        g = cross_entropy_grad(logits, np.array([0, 1, 2, 0, 1]))
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)


def _training_setup(seed=0, n=160):
    rng = np.random.default_rng(seed)
    X, y = planted_pair_data(rng, n=n, n_noise=4)
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    net, _ = build_birdnet(
        X[:120], [f"g{j}" for j in range(X.shape[1])], ["neg", "pos"],
        MiningConfig(mu=1), depth=1, head_hidden=8, seed=seed,
    )
    return net, X[:120], y[:120], X[120:], y[120:]


class TestTrain:
    def test_separable_synthetic_converges(self):
        net, Xt, yt, Xv, yv = _training_setup()
        cfg = TrainConfig(learning_rate=1e-2, epochs_max=100, batch_size=32,
                          dropout=0.0, patience=100)
        net, hist = train(net, Xt, yt, Xv, yv, cfg)
        assert hist.train_loss[-1] < 0.1
        assert hist.val_acc[hist.best_epoch] == 1.0

    def test_deterministic(self):
        runs = []
        for _ in range(2):
            net, Xt, yt, Xv, yv = _training_setup()
            cfg = TrainConfig(epochs_max=12, batch_size=32, dropout=0.1, seed=3)
            net, hist = train(net, Xt, yt, Xv, yv, cfg)
            runs.append((hist.train_loss, hist.val_loss, net.snapshot()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        for k in runs[0][2]:
            assert np.array_equal(runs[0][2][k], runs[1][2][k])

    def test_seed_changes_trajectory(self):
        net, Xt, yt, Xv, yv = _training_setup()
        h1 = train(net, Xt, yt, Xv, yv,
                   TrainConfig(epochs_max=5, batch_size=32, seed=1))[1]
        net2, *_ = _training_setup()
        h2 = train(net2, Xt, yt, Xv, yv,
                   TrainConfig(epochs_max=5, batch_size=32, seed=2))[1]
        assert h1.train_loss != h2.train_loss

    def test_early_stopping_and_best_restore(self):
        net, Xt, yt, Xv, yv = _training_setup()
        cfg = TrainConfig(epochs_max=200, batch_size=32, patience=5, dropout=0.2)
        net, hist = train(net, Xt, yt, Xv, yv, cfg)
        n_epochs = len(hist.val_loss)
        if hist.stopped_early:
            assert n_epochs < 200
            assert hist.best_epoch == n_epochs - 1 - 5
        # restored parameters reproduce the best validation loss
        logits, _ = net.forward(Xv, mode="eval")
        assert cross_entropy(logits, yv) == pytest.approx(
            hist.val_loss[hist.best_epoch], rel=1e-12
        )
        assert hist.val_loss[hist.best_epoch] == min(hist.val_loss)

    def test_masked_positions_stay_zero_through_adamw(self):
        net, Xt, yt, Xv, yv = _training_setup()
        cfg = TrainConfig(epochs_max=30, batch_size=16, patience=30,
                          weight_decay=1e-2, dropout=0.2)
        net, hist = train(net, Xt, yt, Xv, yv, cfg)
        lin = net.blocks[0].linear
        W = dense_weight(lin)
        off_mask = W[~lin.mask()]
        assert off_mask.size > 0
        assert np.max(np.abs(off_mask)) == 0.0

    def test_empty_sets_rejected(self):
        net, Xt, yt, Xv, yv = _training_setup()
        with pytest.raises(ValueError):
            train(net, Xt[:0], yt[:0], Xv, yv, TrainConfig())
        with pytest.raises(ValueError):
            train(net, Xt, yt, Xv[:0], yv[:0], TrainConfig())

    def test_gradient_clipping_bounds_update(self):
        # With a tiny clip norm, one epoch cannot move any parameter by more
        # than roughly lr per step (AdamW normalizes, so check global effect
        # indirectly: training still runs and losses stay finite).
        net, Xt, yt, Xv, yv = _training_setup()
        cfg = TrainConfig(epochs_max=3, batch_size=32, clip_norm=1e-6)
        net, hist = train(net, Xt, yt, Xv, yv, cfg)
        assert all(math.isfinite(v) for v in hist.train_loss + hist.val_loss)

    def test_config_dropout_reaches_train_forward(self):
        net, Xt, yt, Xv, yv = _training_setup()
        seen = []
        forward = net.forward

        def recording_forward(X, mode="eval", rng=None, dropout=0.0):
            seen.append((mode, dropout))
            return forward(X, mode, rng, dropout)

        net.forward = recording_forward
        train(net, Xt, yt, Xv, yv, TrainConfig(epochs_max=1, batch_size=32, dropout=0.25))
        assert set(seen) == {("train", 0.25), ("eval", 0.0)}

    def test_singleton_trailing_batch_skipped(self):
        # n=33, batch 32 leaves a trailing batch of 1, which BatchNorm cannot
        # normalize; training must skip it rather than crash.
        net, Xt, yt, Xv, yv = _training_setup()
        cfg = TrainConfig(epochs_max=2, batch_size=32)
        net, hist = train(net, Xt[:33], yt[:33], Xv, yv, cfg)
        assert len(hist.train_loss) == 2


class TestHistory:
    def test_csv_format(self):
        h = TrainHistory(train_loss=[0.5, 0.25], val_loss=[0.6, 0.3],
                         val_acc=[0.7, 0.9], best_epoch=1)
        text = h.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert lines[1].startswith("0,0.5,0.6,")
        assert lines[2].startswith("1,0.25,0.3,")
