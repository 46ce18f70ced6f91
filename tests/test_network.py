import base64
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from birdnet.explain import _input_name, lrp_explain
from birdnet.network import (
    _CHUNK_BYTES,
    BN_EPS,
    BatchNorm,
    BirBlock,
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
from birdnet.trainer import TrainConfig, cross_entropy_grad, train
from helpers import (
    dense_weight,
    edge_rows,
    edge_table,
    finite_diff_grads,
    inference_nets,
    library_gradients,
    min_kink_gap,
    oracle_eval_forward,
    oracle_input_names,
    random_pair_net,
)


class TestBuildBirLayer:
    def test_type_aware_init_signs(self):
        spec = edge_table((0, 1, t) for t in ("T0", "T1", "T2", "T3", "T4", "T5"))
        blk = build_bir_layer(spec, 2, np.random.default_rng(0))
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
            blocks.append(build_bir_layer(edge_table(spec), d, np.random.default_rng(0)))
            d = len(spec)
        head = DenseHead([DenseLinear.init(1, 2, np.random.default_rng(0))])
        net = BirNetwork(["geneA", "geneB", "geneC"], blocks, head, ["c0", "c1"])
        assert _input_name(net, 0, 2) == "geneC"
        assert _input_name(net, 1, 0) == "L0/u0:T0(geneA,geneB)"
        assert _input_name(net, 2, 1) == "L1/u1:T2(L0/u1:T1(geneB,geneC),L0/u0:T0(geneA,geneB))"
        for _, net in inference_nets(3):
            want = oracle_input_names(net)
            for ell, names in enumerate(want):
                assert [_input_name(net, ell, j) for j in range(len(names))] == names

    def test_rejects_self_loop(self):
        # The edge table refuses the row, so no layer can be built from it.
        with pytest.raises(ValueError, match="edge row 0 needs .*distinct inputs"):
            build_bir_layer(edge_table([(1, 1, "T0")]), 3, np.random.default_rng(0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            build_bir_layer(edge_table([(0, 5, "T0")]), 3, np.random.default_rng(0))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_bir_layer(edge_table([]), 3, np.random.default_rng(0))


class TestBirBlock:
    """A unit's rule and wiring are one table, held by the pair layer; a block
    and a dense layer hold none."""

    def test_rejects_bindings_that_do_not_fit_the_linear_map(self):
        spec = edge_table([(0, 1, "T0"), (1, 2, "T1")])
        pair = PairLinear(spec, [1.0, 1.0], [1.0, 1.0], 3)
        assert pair.bindings is spec and BirBlock(pair, BatchNorm(2)).linear is pair
        with pytest.raises(ValueError, match="pair layer needs one weight pair per binding"):
            PairLinear(spec.take([0]), [1.0, 1.0], [1.0, 1.0], 3)
        with pytest.raises(ValueError, match="pair layer indexes outside input dim 3"):
            PairLinear(edge_table([(0, 1, "T0"), (3, 2, "T1")]), [1.0, 1.0], [1.0, 1.0], 3)
        with pytest.raises(TypeError):
            BirBlock(pair, BatchNorm(2), spec)  # a block takes no bindings of its own

    def test_rule_names_the_inputs_the_unit_reads(self, tmp_path):
        # A unit bound to c -> d reads c and d, and a saved model reloads to the same logits.
        lin = PairLinear(edge_table([(2, 3, "T0")]), [1.0], [1.0], 4)
        head = DenseHead([DenseLinear(np.ones((2, 1)), np.zeros(2))])
        net = BirNetwork(["a", "b", "c", "d"], [BirBlock(lin, BatchNorm(1))], head, ["c0", "c1"])
        net.blocks[0].bn.set_stats(np.zeros(1), np.ones(1) - BN_EPS)
        x = np.array([[10.0, 60.0, 1.0, 2.0]])
        assert net.forward(x)[0].tolist() == [[3.0, 3.0]]
        assert lrp_explain(net, x[0], 0).chain[0][2] == "c -> d"
        save_network(net, str(tmp_path / "m.json"))
        assert load_network(str(tmp_path / "m.json")).forward(x)[0].tolist() == [[3.0, 3.0]]

    def test_matched_mlp_blocks_have_no_bindings(self):
        net = random_pair_net(np.random.default_rng(3), d=7, widths=(6, 5), k=3)
        for dense in to_matched_mlp(net, seed=0).blocks:
            assert isinstance(dense.linear, DenseLinear) and not hasattr(dense.linear, "bindings")
            assert not hasattr(dense, "bindings")


class TestPairLinear:
    def test_forward_hand_example(self):
        # Single unit, weights (1, 1) on features (0, 1),
        # input (2, 3) -> pre-activation 5.
        lin = PairLinear(edge_table([(0, 1, "T0")]), [1.0], [1.0], in_dim=2)
        z = lin.forward(np.array([[2.0, 3.0]]))
        assert z.tolist() == [[5.0]]

    def test_mask_and_dense_weight(self):
        lin = PairLinear(edge_table([(0, 1, "T0"), (2, 0, "T0")]), [1.5, -2.0], [0.5, 3.0], 4)
        W = dense_weight(lin)
        assert W.shape == (2, 4)
        assert W[0].tolist() == [1.5, 0.5, 0.0, 0.0]
        assert W[1].tolist() == [3.0, 0.0, -2.0, 0.0]
        M = lin.mask()
        assert int(M.sum()) == 4
        assert np.all(W[~M] == 0.0)

    def test_active_weight_fraction_is_two_over_d(self):
        lin = PairLinear(edge_table([(0, 1, "T0")]), [1.0], [1.0], in_dim=500)
        assert lin.mask().mean() == 2.0 / 500

    def test_backward_matches_squared_loss_closed_form(self):
        # Single unit z = w_s x_s + w_t x_t; L = (z - y)^2 means
        # dL/dw = 2 (z - y) x.
        rng = np.random.default_rng(0)
        lin = PairLinear(edge_table([(0, 1, "T0")]), [0.7], [-0.3], 2)
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
        lin = PairLinear(edge_table([(0, 1, "T0"), (0, 2, "T0")]), [1.0, 2.0], [1.0, 1.0], 3)
        x = np.ones((1, 3))
        dz = np.ones((1, 2))
        dx, _ = lin.backward(dz, lin.forward_saved(x)[1])
        assert dx[0, 0] == 3.0  # 1*1 + 1*2

    def test_input_width_check(self):
        lin = PairLinear(edge_table([(0, 1, "T0")]), [1.0], [1.0], 2)
        with pytest.raises(ValueError, match="layer expects 2 inputs, got 3"):
            lin.forward(np.ones((1, 3)))

    def test_forward_allocates_its_output_and_one_chunk(self):
        # The construction shape of a benchmark fold: no full-size gathers,
        # and one chunk's gather (two inputs per unit) alive at a time.
        lin = random_pair_net(np.random.default_rng(3), d=166, widths=(600,), k=2).blocks[0].linear
        x = np.random.default_rng(0).normal(size=(533, lin.in_dim))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            z = lin.forward(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        slack = _CHUNK_BYTES  # numpy's ufunc buffers: ~130 KiB seen
        assert peak <= z.nbytes + 2 * _CHUNK_BYTES + slack, (peak, z.nbytes)


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        bn = BatchNorm(2)
        z = np.array([[0.0, 10.0], [2.0, 30.0], [4.0, 50.0]])
        y, _ = bn.forward(z)
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(y.std(axis=0), 1.0, atol=1e-3)  # eps-shrunk

    def test_running_stats_torch_style_update(self):
        bn = BatchNorm(1)
        z = np.array([[2.0], [4.0]])  # batch mean 3, population var 1
        bn.forward(z)
        assert bn.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 3.0)
        assert bn.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    @staticmethod
    def _block(mean, var):
        # BatchNorm's eval form is the block's fold: one unit reading input 0.
        blk = BirBlock(PairLinear(edge_table([(0, 1, "T0")]), [1.0], [0.0], 2), BatchNorm(1))
        blk.bn.set_stats(np.array([mean]), np.array([var]))
        return blk

    def test_eval_uses_running_stats(self):
        blk = self._block(5.0, 4.0)
        y = blk.linear.folded(np.array([[7.0, 3.0]]), blk.fold())
        assert y[0, 0] == pytest.approx(2.0 / np.sqrt(4.0 + 1e-5))

    def test_eval_forward_does_not_touch_running_stats(self):
        blk = self._block(5.0, 4.0)
        blk.linear.folded(np.array([[100.0, 3.0]]), blk.fold())
        assert blk.bn.running_mean[0] == 5.0 and blk.bn.running_var[0] == 4.0


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

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_overflow_is_a_named_error(self, mode):
        # 1e308 + 1e308 overflows the one pair unit; no numpy warning escapes.
        blk = BirBlock(PairLinear(edge_table([(0, 1, "T0")]), [1.0], [1.0], 2), BatchNorm(1))
        head = DenseHead([DenseLinear(np.ones((2, 1)), np.zeros(2))])
        net = BirNetwork(["a", "b"], [blk], head, ["c0", "c1"])
        with pytest.raises(ValueError, match="the network's logits are not finite"):
            net.forward(np.array([[1e308, 1e308], [0.0, 0.0]]), mode=mode)

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

    @pytest.mark.parametrize("shape", [(4, 4), (4, 6), (5,)], ids=["narrower", "wider", "1-D"])
    def test_rejects_a_batch_of_the_wrong_width(self, shape):
        rng = np.random.default_rng(0)
        net = random_pair_net(rng, d=5, widths=(6,), k=3)
        with pytest.raises(ValueError, match=r"expected batch of width 5, got \(" + str(shape[0])):
            net.forward(rng.normal(size=shape), mode="eval")

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
        assert np.array_equal(lin.forward(X), lin.forward_saved(X)[0])  # one chunked gather, same bits
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
        """Save and load net; with a dtype, re-encode each pair block's source and
        target columns in it (">i8": the pair layer keeps native copies)."""
        p = tmp_path / "m.json"
        save_network(net, str(p))
        if wiring:
            doc = json.loads(p.read_text())
            pairs = [blk for blk in doc["blocks"] if blk["kind"] == "pair"]
            for col in (blk["bindings"][k] for blk in pairs for k in ("source", "target")):
                arr = np.frombuffer(base64.b64decode(col["data"]), dtype=col["dtype"]).astype(wiring)
                col.update(dtype=wiring, data=base64.b64encode(arr.tobytes()).decode("ascii"))
            p.write_text(json.dumps(doc))
        return load_network(str(p))

    @staticmethod
    def _arrays(net):
        held = [o for blk in net.blocks for o in (blk.linear, blk.bn)] + net.head.layers
        held += [o.bindings for o in held if isinstance(o, PairLinear)]
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
    def _check(self, net, X, y, mode="eval", tol=1e-4):
        analytic = library_gradients(net, X, y, mode)
        numeric = finite_diff_grads(net, X, y, step=1e-4, mode=mode)
        for path in numeric:
            a, n = analytic[path], numeric[path]
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            rel = np.abs(a - n) / denom
            assert rel.max() < tol, f"{path}: max rel err {rel.max()}"

    def _net_and_batch(self, seed, rows=7, mode="eval", **kwargs):
        # Regenerate until no pre-ReLU activation sits near a kink, where
        # central differences are invalid.
        for s in range(seed, seed + 50):
            rng = np.random.default_rng(s)
            net = random_pair_net(rng, **kwargs)
            X = rng.normal(size=(rows, net.input_dim))
            y = rng.integers(0, net.n_classes, rows)
            if min_kink_gap(net, X, mode) > 5e-3:
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
        net, X, y = self._net_and_batch(300, rows=6, mode="train", d=5, widths=(4,), k=3)
        self._check(net, X, y, mode="train")

    def test_backward_rejects_eval_cache(self):
        net, X, y = self._net_and_batch(400, d=8, widths=(6,), k=3)
        logits, cache = net.forward(X, mode="eval")
        with pytest.raises(ValueError, match="train-mode forward"):
            net.backward(cache, cross_entropy_grad(logits, y))

    def test_masked_positions_receive_no_gradient(self):
        net, X, y = self._net_and_batch(400, d=8, widths=(6,), k=3)
        logits, cache = net.forward(X, mode="train")
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
        net = BirNetwork([f"f{i}" for i in range(2000)], [blk0, blk1], head,
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
            assert edge_rows(b0.linear.bindings) == edge_rows(b1.linear.bindings)
            # the bindings are the wiring: one array, not a copy, built or loaded
            for lin in (b0.linear, b1.linear):
                assert lin.src is lin.bindings.source and lin.tgt is lin.bindings.target
        assert loaded.meta == net.meta
        # names, wiring copies, widths and constants are derived, never stored
        doc = json.loads(p1.read_text())
        assert set(doc) == {"format", "feature_names", "class_names", "meta", "blocks", "head"}
        for blk in doc["blocks"]:
            assert set(blk) == {"kind", "bindings", "bn", "linear"}
            assert set(blk["bindings"]) == {"source", "target", "btype", "log_p", "exceptions",
                                            "antecedent_support"}
            assert set(blk["linear"]) == {"w_src", "w_tgt"}
            assert set(blk["bn"]) == {"gamma", "beta", "running_mean", "running_var"}
        for key in ("unit_names", "input_names", "src", "tgt", "in_dim", "dropout", "eps", "momentum",
                    "input_dim", "exception_fraction"):
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

    def test_reads_v4_file(self, tmp_path):
        # v4 also stored the input width and each binding's exception
        # fraction; both are derived, and neither is read.
        net = random_pair_net(np.random.default_rng(8), d=7, widths=(6, 5), k=3)
        p5, p4 = tmp_path / "v6.json", tmp_path / "v4.json"
        save_network(net, str(p5))
        doc = json.loads(p5.read_text())
        doc.update(format="birdnet-model-v4", input_dim=7)
        for ell, blk in enumerate(net.blocks):
            frac = blk.linear.bindings.exceptions / blk.linear.bindings.antecedent_support
            doc["blocks"][ell]["bindings"]["exception_fraction"] = {
                "dtype": frac.dtype.str, "shape": list(frac.shape),
                "data": base64.b64encode(frac.tobytes()).decode("ascii")}
        p4.write_text(json.dumps(doc, sort_keys=True))
        v5, v4 = load_network(str(p5)), load_network(str(p4))
        assert v4.input_dim == v5.input_dim == 7
        arrays = [[(p, a.tolist()) for p, a, _ in net.params()] for net in (v4, v5)]
        assert arrays[0] == arrays[1]
        for b4, b5 in zip(v4.blocks, v5.blocks):
            assert edge_rows(b4.linear.bindings) == edge_rows(b5.linear.bindings)
            assert np.array_equal(b4.bn.running_var, b5.bn.running_var)
        resaved = tmp_path / "again.json"
        save_network(v4, str(resaved))  # a loaded v4 model saves as v6
        assert resaved.read_bytes() == p5.read_bytes()

    def test_reads_v5_matched_mlp_file(self, tmp_path):
        # v5 stored the pair network's bindings on every dense block too; they
        # are not read, and the file re-saves as v6 without them.
        net = random_pair_net(np.random.default_rng(8), d=7, widths=(6, 5), k=3)
        mlp = to_matched_mlp(net, seed=0)
        p6, p5 = tmp_path / "v6.json", tmp_path / "v5.json"
        save_network(mlp, str(p6))
        doc = json.loads(p6.read_text())
        assert doc["format"] == "birdnet-model-v6" and all("bindings" not in blk for blk in doc["blocks"])
        doc["format"] = "birdnet-model-v5"
        for blk, pair in zip(doc["blocks"], net.blocks):
            blk["bindings"] = {name: {"dtype": col.dtype.str, "shape": list(col.shape),
                                      "data": base64.b64encode(col.tobytes()).decode("ascii")}
                               for name, col in vars(pair.linear.bindings).items()}
        p5.write_text(json.dumps(doc, sort_keys=True))
        X = np.random.default_rng(1).normal(size=(9, 7))
        v5 = load_network(str(p5))
        assert np.array_equal(v5.forward(X)[0], mlp.forward(X)[0])
        resaved = tmp_path / "again.json"
        save_network(v5, str(resaved))
        assert resaved.read_bytes() == p6.read_bytes()

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
        assert doc["format"] == "birdnet-model-v6"
        assert all(set(blk) == {"kind", "bn", "linear"} and set(blk["linear"]) == {"W"} for blk in doc["blocks"])
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
        # Block 1 is a pair layer reading the 6 units of block 0, which is a
        # pair layer or (dense) a matched MLP's dense layer. A negative input
        # or unknown type breaks the edge table's rule; an input past the
        # block's width, the pair layer's own check.
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6, 5), k=3)
        if matched:
            net.blocks[0] = to_matched_mlp(net, seed=0).blocks[0]
        if value == -1 or column == "btype":
            message = r"m\.json: edge row 0 needs a type below 6, distinct inputs >= 0"
        else:
            message = r"m\.json: pair layer indexes outside input dim 6"
        with pytest.raises(ValueError, match=message):
            self._reload(tmp_path, net, lambda doc: self._set_binding(doc, 1, column, value))

    def test_rejects_nan_weight(self, tmp_path):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        net.blocks[0].linear.w_tgt[2] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            self._reload(tmp_path, net)

    @pytest.mark.parametrize("column,value", [("log_p", np.nan), ("log_p", np.inf)])
    def test_rejects_nonfinite_binding(self, tmp_path, column, value):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        with pytest.raises(ValueError, match=r"m\.json: edge row 0 needs .*a finite log_p <= 0"):
            self._reload(tmp_path, net, lambda doc: self._set_binding(doc, 0, column, value))

    def test_rejects_binding_count_mismatch(self, tmp_path):
        # A pair layer is wired by its bindings, so its own shape check fires first.
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        lin = net.blocks[0].linear
        lin.bindings = lin.bindings.take(slice(1, None))
        with pytest.raises(ValueError, match=r"m\.json: pair layer needs one weight pair per binding"):
            self._reload(tmp_path, net)

    def test_constructor_checks_head_and_names(self):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        parts = (net.feature_names, net.blocks, net.head, net.class_names)
        assert BirNetwork(*parts).input_dim == 7
        with pytest.raises(ValueError, match="the head has 3 outputs for 2 class names"):
            BirNetwork(*parts[:3], ["c0", "c1"])
        with pytest.raises(ValueError, match="the head has no layer"):
            BirNetwork(*parts[:2], DenseHead([]), net.class_names)
        with pytest.raises(ValueError, match="layer widths do not chain: 6 feed 7 inputs"):
            BirNetwork(net.feature_names[:6], *parts[1:])

    def test_load_names_constructor_errors(self, tmp_path):
        net = random_pair_net(np.random.default_rng(6), d=7, widths=(6,), k=3)
        with pytest.raises(ValueError, match=r"m\.json: the head has 3 outputs for 4 class names"):
            self._reload(tmp_path, net, lambda doc: doc["class_names"].append("c3"))

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
