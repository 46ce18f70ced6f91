import math
import weakref

import numpy as np
import pytest

from birdnet.builder import build_birdnet
from birdnet.mining import MiningConfig
from birdnet.network import (
    PairLinear,
    active_param_count,
    load_network,
    save_network,
    to_matched_mlp,
)
from birdnet.trainer import (
    TrainConfig,
    TrainHistory,
    cross_entropy,
    softmax,
    train,
)
from helpers import (
    dense_weight,
    oracle_cross_entropy,
    oracle_cross_entropy_grad,
    oracle_gradients,
    oracle_train_step,
    planted_pair_data,
    random_pair_net,
)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = np.zeros((3, 5))
        labels = np.array([0, 2, 4])
        assert cross_entropy(logits, labels)[0] == pytest.approx(math.log(5), rel=1e-12)

    def test_hand_example(self):
        # logits (1, 0), label 0 -> -ln(e / (e + 1)) = 0.31326
        assert cross_entropy(np.array([[1.0, 0.0]]), np.array([0]))[0] == pytest.approx(
            0.31326, abs=1e-5
        )

    def test_overflow_stability(self):
        logits = np.array([[1e4, 0.0], [-1e4, 0.0]])
        loss = cross_entropy(logits, np.array([0, 0]))[0]
        assert math.isfinite(loss)
        assert loss == pytest.approx(5000.0, rel=1e-6)

    def test_label_range_check(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))

    @pytest.mark.parametrize("fn", [cross_entropy])
    @pytest.mark.parametrize("labels", [[0.0, 1.0, 2.0], [0, 1], [0, 1, 3]],
                             ids=["float", "short", "class_outside"])
    def test_malformed_labels_rejected(self, fn, labels):
        with pytest.raises(ValueError, match="3 integer class indices in 0..2, one per row"):
            fn(np.zeros((3, 3)), np.array(labels))

    @pytest.mark.parametrize("fn", [cross_entropy])
    def test_logits_not_2d_rejected(self, fn):
        with pytest.raises(ValueError, match=r"scores must be 2-D \(rows, classes\), got shape \(3,\)"):
            fn(np.zeros(3), np.array([0, 1, 2]))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        p = softmax(rng.normal(size=(6, 4)) * 50)
        assert np.allclose(p.sum(axis=1), 1.0)
        assert np.all(p >= 0)

    def test_loss_and_gradient_match_the_two_pass_oracle_bit_for_bit(self):
        rng = np.random.default_rng(2)
        for case in range(300):
            m, k = int(rng.integers(2, 130)), int(rng.integers(2, 6))
            logits = rng.normal(size=(m, k)) * 10.0 ** rng.uniform(-1.0, math.log10(300.0))
            y = rng.integers(0, k, size=m)
            loss, g = cross_entropy(logits, y)
            assert loss == oracle_cross_entropy(logits, y), case
            assert np.array_equal(g, oracle_cross_entropy_grad(logits, y)), case

    def test_grad_rows_sum_to_zero(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(5, 3))
        g = cross_entropy(logits, np.array([0, 1, 2, 0, 1]))[1]
        assert np.allclose(g.sum(axis=1), 0.0, atol=1e-12)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(patience=0)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)

    @pytest.mark.parametrize("kw, message", [
        # 0 epochs returned the untrained net with best_epoch -1.
        ({"epochs_max": 0}, "epochs_max must be >= 1"),
        # clip_norm 0 scaled every gradient to zero for the whole run.
        ({"clip_norm": 0.0}, "clip_norm must be > 0"),
        ({"clip_norm": -1.0}, "clip_norm must be > 0"),
        ({"clip_norm": float("nan")}, "clip_norm must be > 0"),
        # A NaN or infinite rate trained to a model that could not be loaded.
        ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0"),
        ({"learning_rate": float("inf")}, "learning_rate must be finite and > 0"),
        ({"learning_rate": 0.0}, "learning_rate must be finite and > 0"),
        ({"learning_rate": -1e-3}, "learning_rate must be finite and > 0"),
        ({"weight_decay": float("nan")}, "weight_decay must be finite and >= 0"),
        ({"weight_decay": float("inf")}, "weight_decay must be finite and >= 0"),
        ({"weight_decay": -1e-4}, "weight_decay must be finite and >= 0"),
    ])
    def test_count_and_norm_bounds(self, kw, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kw)

    def test_zero_weight_decay_allowed(self):
        assert TrainConfig(weight_decay=0.0).weight_decay == 0.0


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
        assert cross_entropy(logits, yv)[0] == pytest.approx(
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

    @pytest.mark.parametrize("split, bad", [
        ("train", lambda y: y[:-1]),
        ("train", lambda y: y.astype(np.float64)),
        ("val", lambda y: y[:-1]),
        ("val", lambda y: y.astype(np.float64)),
    ], ids=["train_short", "train_float", "val_short", "val_float"])
    def test_malformed_labels_rejected(self, split, bad):
        net, Xt, yt, Xv, yv = _training_setup()
        if split == "train":
            yt = bad(yt)
        else:
            yv = bad(yv)
        with pytest.raises(ValueError, match="integer class indices in 0..1, one per row"):
            train(net, Xt, yt, Xv, yv, TrainConfig(epochs_max=1))

    def test_single_training_row_rejected(self):
        # One row makes every batch a singleton: no step could be taken.
        net, Xt, yt, Xv, yv = _training_setup()
        before = net.snapshot()
        with pytest.raises(ValueError, match="BatchNorm needs at least 2 rows per batch"):
            train(net, Xt[:1], yt[:1], Xv, yv, TrainConfig(epochs_max=2))
        assert all(np.array_equal(before[k], v) for k, v in net.snapshot().items())

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

    def test_validation_cache_freed_before_next_epoch(self):
        # Each epoch keeps only its validation logits: the arrays of the eval
        # forward's cache, all but the input batch, are dead by the next
        # training step.
        net, Xt, yt, Xv, yv = _training_setup()
        held, live_at_step = [], []
        forward = net.forward

        def watching_forward(X, mode="eval", rng=None, dropout=0.0):
            if mode == "train":
                live_at_step.append(sum(ref() is not None for ref in held))
            logits, cache = forward(X, mode, rng, dropout)
            if mode == "eval":
                arrays = cache["block_in"][1:] + cache["head_in"]
                held.extend(weakref.ref(a) for a in arrays)
            return logits, cache

        net.forward = watching_forward
        train(net, Xt[:48], yt[:48], Xv[:16], yv[:16],
              TrainConfig(epochs_max=4, batch_size=16, patience=4))
        assert len(held) >= 3 * len(net.blocks) and len(live_at_step) == 12
        assert live_at_step == [0] * 12

    def test_singleton_trailing_batch_skipped(self):
        # n=33, batch 32 leaves a trailing batch of 1, which BatchNorm cannot
        # normalize; training must skip it rather than crash.
        net, Xt, yt, Xv, yv = _training_setup()
        cfg = TrainConfig(epochs_max=2, batch_size=32)
        net, hist = train(net, Xt[:33], yt[:33], Xv, yv, cfg)
        assert len(hist.train_loss) == 2


def _step_net(kind: str):
    net = random_pair_net(np.random.default_rng(1), d=12, widths=(9, 7), k=3,
                          head_hidden=6 if kind == "head_hidden" else None)
    return to_matched_mlp(net, seed=1) if kind == "matched" else net


def _step_batch(rows: int):
    rng = np.random.default_rng(rows)
    return rng.normal(size=(rows, 12)), rng.integers(0, 3, rows)


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.abs(want).max()
    return float(np.abs(got - want).max() / scale) if scale else float(np.abs(got).max())


STEP_CASES = pytest.mark.parametrize("kind", ["pair", "head_hidden", "matched"])
STEP_BATCHES = pytest.mark.parametrize("batch", [2, 17, 64])
STEP_DROPOUTS = pytest.mark.parametrize("dropout", [0.0, 0.3])


class TestStepOracle:
    """The train step against `oracle_train_step` and its parts in
    tests/helpers.py, every array within 1e-12 relative."""

    @STEP_CASES
    @STEP_BATCHES
    @STEP_DROPOUTS
    def test_gradients_and_running_stats(self, kind, batch, dropout):
        net, ref = _step_net(kind), _step_net(kind)
        X, y = _step_batch(batch)
        logits, cache = net.forward(X, mode="train", rng=np.random.default_rng(5), dropout=dropout)
        got = net.backward(cache, cross_entropy(logits, y)[1])
        want = oracle_gradients(ref, X, y, np.random.default_rng(5), dropout)
        assert list(got) == list(want)  # the order the global norm sums in
        for path in want:
            assert got[path].shape == want[path].shape
            assert _rel_err(got[path], want[path]) <= 1e-12, path
        for blk, ref_blk in zip(net.blocks, ref.blocks):
            assert _rel_err(blk.bn.running_mean, ref_blk.bn.running_mean) <= 1e-12
            assert _rel_err(blk.bn.running_var, ref_blk.bn.running_var) <= 1e-12

    @STEP_CASES
    @STEP_BATCHES
    @STEP_DROPOUTS
    def test_update(self, kind, batch, dropout):
        # train() over exactly `batch` rows takes one step; the oracle takes
        # its own step from the same shuffle and dropout draws.
        cfg = TrainConfig(epochs_max=1, batch_size=batch, dropout=dropout, seed=7,
                          learning_rate=1e-2, weight_decay=1e-2, clip_norm=0.05)
        X, y = _step_batch(batch)
        net, ref = _step_net(kind), _step_net(kind)
        train(net, X, y, X[:3], y[:3], cfg)
        rng = np.random.default_rng(cfg.seed)
        rows = rng.permutation(batch)
        oracle_train_step(ref, X[rows], y[rows], rng, cfg, cfg.learning_rate,
                          {"t": 0, "m": {}, "v": {}})
        got, want = net.snapshot(), ref.snapshot()
        for path in want:
            assert _rel_err(got[path], want[path]) <= 1e-12, path

    @STEP_CASES
    def test_training_tracks_the_oracle_loop(self, kind):
        # One epoch of three steps; AdamW's moments carry across them.
        cfg = TrainConfig(epochs_max=1, batch_size=17, dropout=0.3, seed=3)
        X, y = _step_batch(51)
        net, ref = _step_net(kind), _step_net(kind)
        train(net, X, y, X[:5], y[:5], cfg)
        rng = np.random.default_rng(cfg.seed)
        rows = rng.permutation(51)
        adam = {"t": 0, "m": {}, "v": {}}
        for start in range(0, 51, 17):
            idx = rows[start : start + 17]
            oracle_train_step(ref, X[idx], y[idx], rng, cfg, cfg.learning_rate, adam)
        got, want = net.snapshot(), ref.snapshot()
        assert max(np.abs(got[p] - want[p]).max() for p in want) <= 1e-8
        for blk in net.blocks:
            if isinstance(blk.linear, PairLinear):
                assert np.all(blk.linear.mask().sum(axis=1) == 2)


class TestParameterBuffer:
    def test_references_stay_live_through_train(self):
        net, Xt, yt, Xv, yv = _training_setup()
        flat, _, paths = net.flat_params()
        held = [arr for _, arr, _ in net.params()]
        train(net, Xt, yt, Xv, yv, TrainConfig(epochs_max=3, batch_size=32))
        assert net.flat_params()[0] is flat
        assert paths == [p for p, _, decay in net.params() if decay] + [
            p for p, _, decay in net.params() if not decay]
        for before, (_, arr, _) in zip(held, net.params()):
            assert before is arr and arr.base is flat

    def test_buffer_is_built_on_first_use(self, tmp_path):
        net, *_ = _training_setup()
        save_network(net, str(tmp_path / "m.json"))
        loaded = load_network(str(tmp_path / "m.json"))
        assert all(arr.base is None for _, arr, _ in loaded.params())
        flat, n_decay, paths = loaded.flat_params()
        assert flat.size == sum(arr.size for _, arr, _ in loaded.params())
        assert all(arr.base is flat for _, arr, _ in loaded.params())

    def test_replaced_array_is_packed_before_training(self):
        net, Xt, yt, Xv, yv = _training_setup()
        old_flat, _, _ = net.flat_params()
        head = net.head[-1]
        head.W = head.W.copy()
        flat, _, _ = net.flat_params()
        assert flat is not old_flat and head.W.base is flat
        before = head.W.copy()
        train(net, Xt, yt, Xv, yv, TrainConfig(epochs_max=1, batch_size=32))
        assert not np.array_equal(head.W, before)

    def test_snapshot_restore_and_reload_bit_exact_after_train(self, tmp_path):
        net, Xt, yt, Xv, yv = _training_setup()
        net, _ = train(net, Xt, yt, Xv, yv, TrainConfig(epochs_max=4, batch_size=32))
        state = net.snapshot()
        logits, _ = net.forward(Xv, mode="eval")
        for _, arr, _ in net.params():
            arr *= 1.5
        net.restore(state)
        after = net.snapshot()
        assert all(np.array_equal(after[k], state[k]) for k in state)
        assert all(arr.base is net.flat_params()[0] for _, arr, _ in net.params())
        save_network(net, str(tmp_path / "m.json"))
        loaded = load_network(str(tmp_path / "m.json"))
        reloaded = loaded.snapshot()
        assert reloaded.keys() == state.keys()
        for trained in (net, loaded):  # two active weights per unit, nothing else
            acc = active_param_count(trained)
            assert acc["bir_active"] == 2 * acc["width"]
        assert all(np.array_equal(reloaded[k], state[k]) for k in state)
        assert np.array_equal(loaded.forward(Xv, mode="eval")[0], logits)


class TestHistory:
    def test_csv_format(self):
        h = TrainHistory(train_loss=[0.5, 0.25], val_loss=[0.6, 0.3],
                         val_acc=[0.7, 0.9], best_epoch=1)
        text = h.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,val_acc"
        assert lines[1].startswith("0,0.5,0.6,")
        assert lines[2].startswith("1,0.25,0.3,")
