import base64
import itertools
import json

import numpy as np
import pytest

from birdnet.explain import _input_name, lrp_explain
from birdnet.network import (
    _CHUNK_BYTES,
    BatchNorm,
    BirNetwork,
    DenseHead,
    DenseLinear,
    PairLinear,
    active_param_count,
    build_bir_layer,
    load_network,
    save_network,
    to_matched_mlp,
)
from birdnet.trainer import TrainConfig, cross_entropy, cross_entropy_grad, train
from helpers import (
    dense_weight,
    edge_rows,
    edge_table,
    finite_diff_grads,
    inference_nets,
    min_kink_gap,
    oracle_eval_forward,
    oracle_input_names,
    random_pair_net,
)


class TestBuildBirLayer:
    def test_type_aware_init_signs(self):
        spec = edge_table((0, 1, t) for t in ("T0", "T1", "T2", "T3", "T4", "T5"))
        blk = build_bir_layer(spec, 2, seed_or_rng=0)
        ws, wt = blk.linear.w_src, blk.linear.w_tgt
        assert ws[0] > 0 and wt[0] > 0  # T0
        assert ws[1] < 0 and wt[1] < 0  # T1
        assert ws[2] > 0 and wt[2] < 0  # T2
        assert ws[3] < 0 and wt[3] > 0  # T3
        assert ws[4] > 0 and wt[4] > 0  # T4
        assert ws[5] > 0 and wt[5] < 0  # T5

    def test_unit_names(self):
        # Names are derived from feature names plus the bindings, on demand.
        layers = [[(0, 1, "T0"), (1, 2, "T1")], [(0, 1, "T4"), (1, 0, "T2")], [(0, 1, "T5")]]
        blocks, d = [], 3
        for spec in layers:
            blocks.append(build_bir_layer(edge_table(spec), d, 0))
            d = len(spec)
        head = DenseHead([DenseLinear.init(1, 2, np.random.default_rng(0))])
        net = BirNetwork(3, ["geneA", "geneB", "geneC"], blocks, head, ["c0", "c1"])
        assert _input_name(net, 0, 2) == "geneC"
        assert _input_name(net, 1, 0) == "L0/u0:T0(geneA,geneB)"
        assert _input_name(net, 2, 1) == "L1/u1:T2(L0/u1:T1(geneB,geneC),L0/u0:T0(geneA,geneB))"
        for _, net in inference_nets(3):
            want = oracle_input_names(net)
            for ell, names in enumerate(want):
                assert [_input_name(net, ell, j) for j in range(len(names))] == names

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_bir_layer(edge_table([(1, 1, "T0")]), 3, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            build_bir_layer(edge_table([(0, 5, "T0")]), 3, 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_bir_layer(edge_table([]), 3, 0)


class TestPairLinear:
    def test_forward_hand_example(self):
        # Single unit, weights (1, 1) on features (0, 1),
        # input (2, 3) -> pre-activation 5.
        lin = PairLinear([0], [1], [1.0], [1.0], in_dim=2)
        z = lin.forward(np.array([[2.0, 3.0]]))
        assert z.tolist() == [[5.0]]

    def test_mask_and_dense_weight(self):
        lin = PairLinear([0, 2], [1, 0], [1.5, -2.0], [0.5, 3.0], 4)
        W = dense_weight(lin)
        assert W.shape == (2, 4)
        assert W[0].tolist() == [1.5, 0.5, 0.0, 0.0]
        assert W[1].tolist() == [3.0, 0.0, -2.0, 0.0]
        M = lin.mask()
        assert int(M.sum()) == 4
        assert np.all(W[~M] == 0.0)

    def test_active_weight_fraction_is_two_over_d(self):
        lin = PairLinear([0], [1], [1.0], [1.0], in_dim=500)
        assert lin.mask().mean() == 2.0 / 500

    def test_backward_matches_squared_loss_closed_form(self):
        # Single unit z = w_s x_s + w_t x_t; L = (z - y)^2 means
        # dL/dw = 2 (z - y) x.
        rng = np.random.default_rng(0)
        lin = PairLinear([0], [1], [0.7], [-0.3], 2)
        x = rng.normal(size=(5, 2))
        y = rng.normal(size=(5, 1))
        z, saved = lin.forward_saved(x)
        dz = 2.0 * (z - y)
        dx, grads = lin.backward(dz, saved)
        assert np.allclose(grads["w_src"], (dz[:, 0] * x[:, 0]).sum())
        assert np.allclose(grads["w_tgt"], (dz[:, 0] * x[:, 1]).sum())
        assert set(grads) == {"w_src", "w_tgt"}
        assert np.allclose(dx, dz * np.array([0.7, -0.3]))

    def test_backward_accumulates_shared_inputs(self):
        # Two units both reading feature 0: dx[0] sums both paths.
        lin = PairLinear([0, 0], [1, 2], [1.0, 2.0], [1.0, 1.0], 3)
        x = np.ones((1, 3))
        dz = np.ones((1, 2))
        dx, _ = lin.backward(dz, lin.forward_saved(x)[1])
        assert dx[0, 0] == 3.0  # 1*1 + 1*2

    def test_input_width_check(self):
        lin = PairLinear([0], [1], [1.0], [1.0], 2)
        with pytest.raises(ValueError):
            lin.forward(np.ones((1, 3)))


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        bn = BatchNorm(2)
        z = np.array([[0.0, 10.0], [2.0, 30.0], [4.0, 50.0]])
        y, _ = bn.forward(z, "train")
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(y.std(axis=0), 1.0, atol=1e-3)  # eps-shrunk

    def test_running_stats_torch_style_update(self):
        bn = BatchNorm(1)
        z = np.array([[2.0], [4.0]])  # batch mean 3, population var 1
        bn.forward(z, "train")
        assert bn.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 3.0)
        assert bn.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(1)
        bn.set_stats(np.array([5.0]), np.array([4.0]))
        y, _ = bn.forward(np.array([[7.0]]), "eval")
        assert y[0, 0] == pytest.approx(2.0 / np.sqrt(4.0 + 1e-5))

    def test_eval_forward_does_not_touch_running_stats(self):
        bn = BatchNorm(1)
        bn.set_stats(np.array([5.0]), np.array([4.0]))
        bn.forward(np.array([[100.0]]), "eval")
        assert bn.running_mean[0] == 5.0 and bn.running_var[0] == 4.0


class TestForwardModes:
    def test_eval_is_deterministic_train_has_dropout(self):
        rng = np.random.default_rng(0)
        net = random_pair_net(rng, d=5, widths=(6,), k=3)
        X = rng.normal(size=(8, 5))
        a, _ = net.forward(X, mode="eval")
        b, _ = net.forward(X, mode="eval")
        assert np.array_equal(a, b)
        t1, _ = net.forward(X, mode="train", rng=np.random.default_rng(1), dropout=0.5)
        t2, _ = net.forward(X, mode="train", rng=np.random.default_rng(2), dropout=0.5)
        assert not np.array_equal(t1, t2)
        n1, _ = net.forward(X, mode="train", rng=np.random.default_rng(1))
        n2, _ = net.forward(X, mode="train", rng=np.random.default_rng(2))
        assert np.array_equal(n1, n2)  # no dropout unless asked for

    def test_train_mode_requires_rng_with_dropout(self):
        rng = np.random.default_rng(0)
        net = random_pair_net(rng, d=5, widths=(6,), k=3)
        with pytest.raises(ValueError, match="rng"):
            net.forward(rng.normal(size=(4, 5)), mode="train", dropout=0.3)

    def test_train_mode_rejects_singleton_batch(self):
        rng = np.random.default_rng(0)
        net = random_pair_net(rng, d=5, widths=(6,), k=3)
        with pytest.raises(ValueError, match="at least 2"):
            net.forward(rng.normal(size=(1, 5)), mode="train")

    def test_unknown_mode(self):
        rng = np.random.default_rng(0)
        net = random_pair_net(rng, d=5, widths=(6,), k=3)
        with pytest.raises(ValueError):
            net.forward(rng.normal(size=(4, 5)), mode="test")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rows(self, bad):
        rng = np.random.default_rng(0)
        net = random_pair_net(rng, d=5, widths=(6,), k=3)
        X = rng.normal(size=(4, 5))
        X[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            net.forward(X, mode="eval")


class TestFoldedEval:
    """The folded eval forward against the unfolded one it replaced."""

    def test_matches_unfolded_oracle(self):
        for seed in range(12):
            for name, net in inference_nets(seed):
                X = np.random.default_rng(seed).normal(size=(16, net.input_dim))
                logits, cache = net.forward(X, mode="eval")
                want, want_cache = oracle_eval_forward(net, X)
                assert np.abs(logits - want).max() <= 1e-12, (seed, name)
                for key in ("block_in", "post_bn", "head_in"):
                    for got, ref in zip(cache[key], want_cache[key]):
                        assert np.abs(got - ref).max() <= 1e-12, (seed, name, key)

    def test_eval_cache_holds_no_batchnorm_state(self):
        _, net = next(inference_nets(0))
        _, cache = net.forward(np.ones((3, net.input_dim)), mode="eval")
        assert set(cache) == {"mode", "block_in", "post_bn", "head_in", "fold"}
        for blk, fold in zip(net.blocks, cache["fold"], strict=True):
            assert np.array_equal(fold.scale, blk.fold().scale)

    def test_batch_equals_row_by_row(self):
        for seed in range(6):
            for name, net in inference_nets(100 + seed):
                X = np.random.default_rng(seed).normal(size=(64, net.input_dim))
                batch, _ = net.forward(X, mode="eval")
                rows = np.vstack([net.forward(X[r : r + 1], mode="eval")[0] for r in range(64)])
                assert np.abs(batch - rows).max() <= 1e-12, (seed, name)

    @pytest.fixture(scope="class")
    def wide_net(self):
        return random_pair_net(np.random.default_rng(41), d=10, widths=(4100,), k=3)

    @pytest.mark.parametrize("m", [0, 1, 7, 8, 64])
    def test_row_chunks_match_one_shot(self, wide_net, m):
        # 4100 units give 7 rows per output chunk, so these batches split
        # at, around and far past a chunk boundary.
        assert _CHUNK_BYTES // (8 * 4100) == 7
        blk = wide_net.blocks[0]
        lin = blk.linear
        X = np.random.default_rng(m).normal(size=(m, wide_net.input_dim))
        s, shift = blk.fold()[:2]
        one_shot = X[:, lin.src] * (lin.w_src * s) + X[:, lin.tgt] * (lin.w_tgt * s) + shift
        assert np.array_equal(lin.folded(X, blk.fold()), one_shot)
        logits, _ = wide_net.forward(X, mode="eval")
        assert np.abs(logits - oracle_eval_forward(wide_net, X)[0]).max(initial=0.0) <= 1e-12
        rows = [wide_net.forward(X[r : r + 1], mode="eval")[0] for r in range(m)]
        rows = np.vstack(rows + [np.empty((0, wide_net.n_classes))])
        assert np.abs(logits - rows).max(initial=0.0) <= 1e-12

    def test_index_written_after_construction_raises(self):
        # The gather is bounds-checked: an index edited in after the
        # constructor's check fails loudly instead of reading a clamped column.
        net = random_pair_net(np.random.default_rng(5), d=6, widths=(5, 4), k=3)
        lin = net.blocks[1].linear
        lin.src[2] = lin.in_dim
        with pytest.raises(IndexError):
            net.forward(np.ones((3, 6)), mode="eval")

    def test_predict_follows_every_parameter_writer(self):
        # The fold is recomputed per call; a memoised fold would go stale
        # under each of these writers and miss the oracle.
        rng = np.random.default_rng(21)
        net = random_pair_net(rng, d=6, widths=(5, 4), k=3)
        X = rng.normal(size=(40, 6))
        y = rng.integers(0, 3, 40)
        state = net.snapshot()

        def predict_tracks(write):
            before, _ = net.forward(X, mode="eval")
            write()
            after, _ = net.forward(X, mode="eval")
            assert not np.array_equal(before, after)
            assert np.abs(after - oracle_eval_forward(net, X)[0]).max() <= 1e-12

        cfg = TrainConfig(epochs_max=3, batch_size=8, patience=3, seed=2)
        predict_tracks(lambda: train(net, X[:30], y[:30], X[30:], y[30:], cfg))
        predict_tracks(lambda: net.restore(state))
        h = net.blocks[0].linear.out_dim
        predict_tracks(lambda: net.blocks[0].bn.set_stats(np.full(h, 0.4), np.full(h, 3.0)))
        for path, arr, _ in list(net.params()):
            predict_tracks(lambda: np.add(arr, 1.0, out=arr))
        bn = net.blocks[1].bn
        predict_tracks(lambda: np.subtract(bn.running_mean, 0.5, out=bn.running_mean))
        predict_tracks(lambda: np.multiply(bn.running_var, 2.0, out=bn.running_var))


class TestServedModel:
    """A loaded model is read-only and keeps one fold per block."""

    @staticmethod
    def _load(tmp_path, net, wiring=None):
        """Save and load net; with a dtype, re-encode each block's source and
        target columns in it (">i8": the pair layer keeps native copies)."""
        p = tmp_path / "m.json"
        save_network(net, str(p))
        if wiring:
            doc = json.loads(p.read_text())
            for col in (blk["bindings"][k] for blk in doc["blocks"] for k in ("source", "target")):
                arr = np.frombuffer(base64.b64decode(col["data"]), dtype=col["dtype"]).astype(wiring)
                col.update(dtype=wiring, data=base64.b64encode(arr.tobytes()).decode("ascii"))
            p.write_text(json.dumps(doc))
        return load_network(str(p))

    @staticmethod
    def _arrays(net):
        held = [o for blk in net.blocks for o in (blk.linear, blk.bn, blk.bindings)] + net.head.layers
        return [v for o in held for v in vars(o).values() if isinstance(v, np.ndarray)]

    def test_every_loaded_array_is_read_only(self, tmp_path):
        for (name, net), wiring in itertools.product(inference_nets(3), (None, ">i8")):
            arrays = self._arrays(self._load(tmp_path, net, wiring))
            assert len(arrays) == len(self._arrays(net)) > 0
            for arr in arrays:
                assert not arr.flags.writeable, (name, wiring)
                with pytest.raises(ValueError, match="read-only"):
                    np.add(arr, arr.dtype.type(1), out=arr)

    def test_loaded_model_folds_once_built_model_every_call(self, tmp_path):
        for name, net in inference_nets(4):
            X = np.random.default_rng(4).normal(size=(3, net.input_dim))
            loaded = [(self._load(tmp_path, net, wiring), True) for wiring in (None, ">i8")]
            for model, kept in loaded + [(net, False)]:
                _, first = model.forward(X, mode="eval")
                _, second = model.forward(X, mode="eval")
                for f1, f2 in zip(first["fold"], second["fold"], strict=True):
                    same = [a is b for a, b in zip(f1, f2) if a is not None]
                    assert same == [kept] * len(same), (name, kept)

    def test_loaded_predict_follows_every_parameter_writer(self, tmp_path):
        # Each writer installs fresh writeable arrays, so the kept fold is
        # dropped; restore packs a never-trained loaded model first.
        rng = np.random.default_rng(21)
        net = random_pair_net(rng, d=6, widths=(5, 4), k=3)
        X = rng.normal(size=(40, 6))
        y = rng.integers(0, 3, 40)
        cfg = TrainConfig(epochs_max=3, batch_size=8, patience=3, seed=2)
        trained = self._load(tmp_path, net)
        train(trained, X[:30], y[:30], X[30:], y[30:], cfg)
        state = trained.snapshot()
        h = net.blocks[0].linear.out_dim

        def unlock_and_write(m):  # a read-only flag turned off again also ends reuse
            gamma = m.blocks[1].bn.gamma
            gamma.flags.writeable = True
            gamma *= 2.0

        writers = {
            "train": lambda m: train(m, X[:30], y[:30], X[30:], y[30:], cfg),
            "restore": lambda m: m.restore(state),
            "set_stats": lambda m: m.blocks[0].bn.set_stats(np.full(h, 0.4), np.full(h, 3.0)),
            "unlocked": unlock_and_write,
        }
        for name, write in writers.items():
            loaded = self._load(tmp_path, net)
            before, _ = loaded.forward(X, mode="eval")
            write(loaded)
            after, _ = loaded.forward(X, mode="eval")
            assert not np.array_equal(before, after), name
            assert np.abs(after - oracle_eval_forward(loaded, X)[0]).max() <= 1e-12, name

    def test_loaded_model_matches_the_model_it_was_saved_from(self, tmp_path):
        # The 4100-unit net runs 64 rows in several chunks, the others in one.
        nets = [named for seed in range(4) for named in inference_nets(200 + seed)]
        nets.append(("wide", random_pair_net(np.random.default_rng(41), d=10, widths=(4100,), k=3)))
        for i, (name, net) in enumerate(nets):
            loaded = self._load(tmp_path, net)
            X = np.random.default_rng(i).normal(size=(64, net.input_dim))
            for rows in (X[:1], X, X[:1]):  # the last call reuses the kept fold
                want, _ = net.forward(rows, mode="eval")
                assert np.array_equal(loaded.forward(rows, mode="eval")[0], want), name
            for target in range(net.n_classes):
                a, b = lrp_explain(net, X[1], target), lrp_explain(loaded, X[1], target)
                for ra, rb in zip(a.layer_relevances, b.layer_relevances, strict=True):
                    assert np.array_equal(ra, rb), (name, target)
                assert a.chain == b.chain


class TestGradients:
    def _check(self, net, X, y, tol=1e-4):
        logits, cache = net.forward(X, mode="eval")
        analytic = net.backward(cache, cross_entropy_grad(logits, y))
        numeric = finite_diff_grads(net, X, y, step=1e-4)
        for path in numeric:
            a, n = analytic[path], numeric[path]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            rel = np.abs(a - n) / denom
            assert rel.max() < tol, f"{path}: max rel err {rel.max()}"

    def _net_and_batch(self, seed, **kwargs):
        # Regenerate until no pre-ReLU activation sits near a kink, where
        # central differences are invalid.
        for s in range(seed, seed + 50):
            rng = np.random.default_rng(s)
            net = random_pair_net(rng, **kwargs)
            X = rng.normal(size=(7, net.input_dim))
            y = rng.integers(0, net.n_classes, 7)
            if min_kink_gap(net, X) > 5e-3:
                return net, X, y
        raise AssertionError("no kink-free configuration found")

    def test_eval_mode_two_blocks(self):
        net, X, y = self._net_and_batch(0, d=6, widths=(5, 4), k=3)
        self._check(net, X, y)

    def test_eval_mode_with_head_hidden(self):
        net, X, y = self._net_and_batch(100, d=5, widths=(4,), k=3, head_hidden=6)
        self._check(net, X, y)

    def test_head_only_network(self):
        net, X, y = self._net_and_batch(200, d=4, widths=(), k=3, head_hidden=5)
        self._check(net, X, y)

    def test_train_mode_batch_statistics_gradient(self):
        # Train mode differentiates through the batch mean/variance; dropout
        # off so the loss is a deterministic function of the parameters.
        for s in range(300, 350):
            rng = np.random.default_rng(s)
            net = random_pair_net(rng, d=5, widths=(4,), k=3)
            X = rng.normal(size=(6, 5))
            y = rng.integers(0, 3, 6)
            logits, cache = net.forward(X, mode="train")
            analytic = net.backward(cache, cross_entropy_grad(logits, y))

            def loss_train():
                # Running statistics drift across forwards but never enter the
                # train-mode loss, so no state reset is needed.
                lg, _ = net.forward(X, mode="train")
                return cross_entropy(lg, y)

            # Kink check in train mode: recompute post-BN activations.
            gap = min(float(np.abs(blk.bn.gamma * c[0] + blk.bn.beta).min())
                      for blk, c in zip(net.blocks, cache["bn"]))
            if gap < 5e-3:
                continue
            ok = True
            for path, arr, _ in net.params():
                g = np.zeros_like(arr)
                flat, gf = arr.ravel(), g.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + 1e-4
                    lp = loss_train()
                    flat[i] = orig - 1e-4
                    lm = loss_train()
                    flat[i] = orig
                    gf[i] = (lp - lm) / 2e-4
                denom = np.maximum(np.maximum(np.abs(g), np.abs(analytic[path])), 1e-6)
                ok &= bool((np.abs(g - analytic[path]) / denom).max() < 1e-4)
            if ok:
                return
        raise AssertionError("train-mode gradient check failed on all seeds")

    def test_masked_positions_receive_no_gradient(self):
        net, X, y = self._net_and_batch(400, d=8, widths=(6,), k=3)
        logits, cache = net.forward(X, mode="eval")
        grads = net.backward(cache, cross_entropy_grad(logits, y))
        lin = net.blocks[0].linear
        # Gradients exist only for the 2h stored weights; the dense gradient
        # view is zero off-mask by construction.
        dense_grad = np.zeros((lin.out_dim, lin.in_dim))
        dense_grad[np.arange(lin.out_dim), lin.src] += grads["block0.w_src"]
        dense_grad[np.arange(lin.out_dim), lin.tgt] += grads["block0.w_tgt"]
        assert np.all(dense_grad[~lin.mask()] == 0.0)


class TestAccounting:
    @staticmethod
    def _random_spec(rng, h, d, btype):
        out = []
        while len(out) < h:
            a, b = rng.integers(0, d, size=2)
            if a != b:
                out.append((int(a), int(b), btype))
        return edge_table(out)

    def test_two_layer_5000_5000_over_2000(self):
        rng = np.random.default_rng(0)
        blk0 = build_bir_layer(self._random_spec(rng, 5000, 2000, "T0"), 2000, rng)
        blk1 = build_bir_layer(self._random_spec(rng, 5000, 5000, "T1"), 5000, rng)
        head = DenseHead([DenseLinear.init(5000, 32, rng), DenseLinear.init(32, 8, rng)])
        net = BirNetwork(2000, [f"f{i}" for i in range(2000)], [blk0, blk1], head,
                         [f"c{i}" for i in range(8)])
        acc = active_param_count(net)
        assert acc["width"] == 10000
        assert acc["bir_active"] == 20000
        # layer sparsity: active fraction is exactly 2/d
        assert blk0.linear.mask().mean() == 0.001

    def test_single_layer_compression_is_d_over_2(self):
        rng = np.random.default_rng(1)
        d, h = 200, 50
        blk = build_bir_layer(self._random_spec(rng, h, d, "T0"), d, rng)
        dense_weights = h * d
        masked_weights = 2 * h
        assert dense_weights / masked_weights == d / 2

    def test_matched_mlp_counts_dense(self):
        rng = np.random.default_rng(2)
        net = random_pair_net(rng, d=10, widths=(8,), k=3)
        matched = to_matched_mlp(net, seed=0)
        acc = active_param_count(matched)
        assert acc["width"] == 8
        assert acc["bir_active"] == 8 * 10
        assert matched.meta.get("matched_mlp") is True
        # architecture preserved
        assert matched.blocks[0].linear.out_dim == 8
        assert [l.out_dim for l in matched.head.layers] == [
            l.out_dim for l in net.head.layers
        ]


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        net = random_pair_net(rng, d=7, widths=(6, 5), k=4, head_hidden=8)
        net.meta["trained"] = False
        p1 = tmp_path / "m1.json"
        save_network(net, str(p1))
        loaded = load_network(str(p1))
        for (pa, a, _), (pb, b, _) in zip(net.params(), loaded.params()):
            assert pa == pb
            assert np.array_equal(a, b)
        for b0, b1 in zip(net.blocks, loaded.blocks):
            assert np.array_equal(b0.bn.running_mean, b1.bn.running_mean)
            assert np.array_equal(b0.bn.running_var, b1.bn.running_var)
            assert edge_rows(b0.bindings) == edge_rows(b1.bindings)
            # the bindings are the wiring: one array, not a copy
            assert b1.linear.src is b1.bindings.source and b1.linear.tgt is b1.bindings.target
        assert loaded.meta == net.meta
        # names, wiring copies, widths and constants are derived, never stored
        doc = json.loads(p1.read_text())
        for blk in doc["blocks"]:
            assert set(blk) == {"kind", "bindings", "bn", "linear"}
            assert set(blk["linear"]) == {"w_src", "w_tgt"}
            assert set(blk["bn"]) == {"gamma", "beta", "running_mean", "running_var"}
        for key in ("unit_names", "input_names", "src", "tgt", "in_dim", "dropout", "eps", "momentum"):
            assert f'"{key}"' not in p1.read_text()
        # byte-determinism: saving the loaded model reproduces the file
        p2 = tmp_path / "m2.json"
        save_network(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_same_predictions_after_reload(self, tmp_path):
        rng = np.random.default_rng(4)
        net = random_pair_net(rng, d=6, widths=(5,), k=3)
        X = rng.normal(size=(10, 6))
        path = tmp_path / "m.json"
        save_network(net, str(path))
        loaded = load_network(str(path))
        a, _ = net.forward(X, mode="eval")
        b, _ = loaded.forward(X, mode="eval")
        assert np.array_equal(a, b)

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "other.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a recognized"):
            load_network(str(p))

    @staticmethod
    def _reload(tmp_path, net, edit_doc=None):
        p = tmp_path / "m.json"
        save_network(net, str(p))
        if edit_doc is not None:
            doc = json.loads(p.read_text())
            edit_doc(doc)
            p.write_text(json.dumps(doc))
        return load_network(str(p))

    def test_rejects_v1_file(self, tmp_path):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        with pytest.raises(ValueError, match="birdnet-model-v1.*rebuild"):
            self._reload(tmp_path, net, lambda doc: doc.update(format="birdnet-model-v1"))

    def test_rejects_v2_file(self, tmp_path):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        with pytest.raises(ValueError, match="birdnet-model-v2.*rebuild"):
            self._reload(tmp_path, net, lambda doc: doc.update(format="birdnet-model-v2"))

    def test_rejects_v3_file(self, tmp_path):
        # v3 stored a pre-BatchNorm bias per pair unit and per dense block output.
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        with pytest.raises(ValueError, match="birdnet-model-v3.*rebuild"):
            self._reload(tmp_path, net, lambda doc: doc.update(format="birdnet-model-v3"))

    def test_dense_block_stores_only_its_weight(self, tmp_path):
        net = to_matched_mlp(random_pair_net(np.random.default_rng(7), d=7, widths=(6, 5), k=3,
                                             head_hidden=4), seed=0)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_network(net, str(p1))
        doc = json.loads(p1.read_text())
        assert doc["format"] == "birdnet-model-v4"
        assert all(set(blk["linear"]) == {"W"} for blk in doc["blocks"])
        assert all(set(lay) == {"W", "b"} for lay in doc["head"])
        loaded = load_network(str(p1))
        assert [p for p, _, _ in loaded.params()] == [p for p, _, _ in net.params()]
        assert active_param_count(loaded)["bir_active"] == 6 * 7 + 5 * 6
        save_network(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_out_of_range_src(self, tmp_path):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6, 5), k=3)
        net.blocks[1].linear.src[0] = 6  # layer 1 has 6 inputs
        with pytest.raises(ValueError, match="outside"):
            self._reload(tmp_path, net)

    def test_rejects_width_mismatch(self, tmp_path):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6, 5), k=3)
        W = net.head.layers[0].W
        net.head.layers[0].W = np.hstack([W, W])  # the head reads 10 inputs of 5
        with pytest.raises(ValueError, match="do not chain"):
            self._reload(tmp_path, net)

    @staticmethod
    def _set_binding(doc, ell, column, value):
        col = doc["blocks"][ell]["bindings"][column]
        arr = np.frombuffer(base64.b64decode(col["data"]), dtype=col["dtype"]).copy()
        arr[0] = value
        col["data"] = base64.b64encode(arr.tobytes()).decode("ascii")

    @pytest.mark.parametrize("matched", [False, True], ids=["pair", "dense"])
    @pytest.mark.parametrize("column,value", [("source", 6), ("target", 6), ("source", -1),
                                              ("btype", 6)])
    def test_rejects_bad_binding(self, tmp_path, matched, column, value):
        # Block 1 reads the 6 units of block 0; a matched MLP's dense blocks
        # keep their bindings for rule text and are checked the same way.
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6, 5), k=3)
        if matched:
            net = to_matched_mlp(net, seed=0)
        with pytest.raises(ValueError, match="block 1: a binding has a type code >= 6 or an input outside 0..5"):
            self._reload(tmp_path, net, lambda doc: self._set_binding(doc, 1, column, value))

    def test_rejects_nan_weight(self, tmp_path):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        net.blocks[0].linear.w_tgt[2] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            self._reload(tmp_path, net)

    def test_rejects_binding_count_mismatch(self, tmp_path):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        net.blocks[0].bindings = net.blocks[0].bindings.take(slice(1, None))
        with pytest.raises(ValueError, match="5 bindings for 6 units"):
            self._reload(tmp_path, net)

    def test_snapshot_restore(self):
        rng = np.random.default_rng(5)
        net = random_pair_net(rng, d=6, widths=(5,), k=3)
        X = rng.normal(size=(4, 6))
        before, _ = net.forward(X, mode="eval")
        state = net.snapshot()
        for _, arr, _ in net.params():
            arr += 1.0
        net.blocks[0].bn.running_mean += 2.0
        changed, _ = net.forward(X, mode="eval")
        assert not np.array_equal(before, changed)
        net.restore(state)
        after, _ = net.forward(X, mode="eval")
        assert np.array_equal(before, after)
