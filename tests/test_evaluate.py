import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birdnet.builder import build_birdnet
from birdnet.dataio import VAL_FRACTION, LabeledDataset, load_csv, preselect_and_standardize
from birdnet.evaluate import (
    PipelineConfig,
    _fold_scores,
    accuracy,
    auroc_macro_ovr,
    cross_validate,
    fit_on_rows,
    holdout_rules_run,
)
from birdnet.mining import MiningConfig
from birdnet.network import BirNetwork
from birdnet.trainer import TrainConfig
from helpers import planted_pair_data, write_csv


def brute_force_auroc(scores, pos):
    """P(score_pos > score_neg) + 0.5 P(tie) by exhaustive pair comparison."""
    p = scores[pos]
    n = scores[~pos]
    wins = sum((pi > ni) + 0.5 * (pi == ni) for pi in p for ni in n)
    return wins / (len(p) * len(n))


class TestAuroc:
    def test_perfect_separation(self):
        scores = np.array([[0.1, 0.9], [0.2, 0.8], [0.9, 0.1], [0.7, 0.3]])
        labels = np.array([1, 1, 0, 0])
        auc, skipped = auroc_macro_ovr(scores, labels)
        assert auc == 1.0 and skipped == []

    def test_all_equal_scores_give_half(self):
        scores = np.zeros((6, 2))
        labels = np.array([0, 1, 0, 1, 0, 1])
        auc, _ = auroc_macro_ovr(scores, labels)
        assert auc == 0.5

    def test_hand_examples(self):
        col = np.array([0.1, 0.4, 0.35, 0.8])
        scores = np.column_stack([-col, col])
        auc, _ = auroc_macro_ovr(scores, np.array([0, 1, 0, 1]))
        assert auc == 1.0
        auc, _ = auroc_macro_ovr(scores, np.array([0, 0, 1, 1]))
        assert auc == 0.75

    def test_skips_class_without_examples(self):
        scores = np.random.default_rng(0).normal(size=(8, 3))
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])  # class 2 absent
        auc, skipped = auroc_macro_ovr(scores, labels)
        assert skipped == [2]

    @pytest.mark.parametrize("labels", [[0.0, 1.0, 0.0], [0, 1], [0, 1, 2]],
                             ids=["float", "short", "class_outside"])
    def test_malformed_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="3 integer class indices in 0..1, one per row"):
            auroc_macro_ovr(np.zeros((3, 2)), np.array(labels))

    def test_scores_not_2d_rejected(self):
        # Once a TypeError from unpacking the scores' shape.
        with pytest.raises(ValueError, match=r"scores must be 2-D \(rows, classes\), got shape \(4,\)"):
            auroc_macro_ovr(np.zeros(4), np.array([0, 1, 0, 1]))

    def test_no_evaluable_class(self):
        with pytest.raises(ValueError):
            auroc_macro_ovr(np.zeros((3, 2)), np.array([0, 0, 0]))

    @given(st.integers(min_value=2, max_value=50), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_matches_pairwise_definition(self, m, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 3, m)
        if len(np.unique(labels)) < 2:
            return
        scores = np.round(rng.normal(size=(m, 3)), 1)  # rounding makes ties
        try:
            auc, skipped = auroc_macro_ovr(scores, labels)
        except ValueError:
            return
        per_class = []
        for c in range(3):
            pos = labels == c
            if pos.sum() in (0, m):
                assert c in skipped
                continue
            per_class.append(brute_force_auroc(scores[:, c], pos))
        assert auc == pytest.approx(float(np.mean(per_class)), abs=1e-12)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(30, 2))
        labels = rng.integers(0, 2, 30)
        a1, _ = auroc_macro_ovr(scores, labels)
        a2, _ = auroc_macro_ovr(np.exp(3 * scores), labels)
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_midranks_match_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            m = int(rng.integers(4, 60))
            labels = rng.integers(0, 3, m)
            scores = rng.integers(0, 5, size=(m, 3)).astype(float)  # many ties
            try:
                auc, skipped = auroc_macro_ovr(scores, labels)
            except ValueError:
                continue
            want = [
                brute_force_auroc(scores[:, c], labels == c)
                for c in range(3)
                if c not in skipped
            ]
            assert auc == pytest.approx(float(np.mean(want)), abs=1e-12)

    def test_fold_auroc_ignores_per_row_logit_shift(self):
        # A constant added to all of one row's logits leaves its class
        # probabilities, and so the reported AUROC, unchanged.
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(80, 3))
        labels = rng.integers(0, 3, 80)
        shifted = logits + rng.normal(scale=5.0, size=(80, 1))
        auc, skipped, acc = _fold_scores(logits, labels)
        auc2, skipped2, acc2 = _fold_scores(shifted, labels)
        assert auc2 == pytest.approx(auc, abs=1e-12)
        assert (skipped2, acc2) == (skipped, acc)
        # Raw logits are not shift-invariant: the test has teeth.
        assert abs(auroc_macro_ovr(shifted, labels)[0] - auc) > 0.01


class TestAccuracy:
    def test_basic(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        assert accuracy(scores, np.array([0, 1, 1, 1])) == 0.75

    def test_tie_goes_to_lowest_index(self):
        scores = np.zeros((4, 3))
        assert accuracy(scores, np.zeros(4, dtype=int)) == 1.0
        assert accuracy(scores, np.ones(4, dtype=int)) == 0.0

    @pytest.mark.parametrize("labels", [[0, 1], [0.0, 1.0, 0.0, 1.0], [0, 1, 2, 1]],
                             ids=["short", "float", "class_outside"])
    def test_malformed_labels_rejected(self, labels):
        # A short label vector once failed inside numpy's broadcasting.
        with pytest.raises(ValueError, match="4 integer class indices in 0..1, one per row"):
            accuracy(np.zeros((4, 2)), np.array(labels))

    @pytest.mark.parametrize("scores", [np.zeros(4), np.zeros((4, 2, 1)), np.float64(0.5)],
                             ids=["1-D", "3-D", "0-D"])
    def test_scores_not_2d_rejected(self, scores):
        # A 1-D score vector was once a TypeError from unpacking its shape.
        with pytest.raises(ValueError, match=r"scores must be 2-D \(rows, classes\)"):
            accuracy(scores, np.zeros(4, dtype=int))


def synthetic_dataset(seed=0, n=300):
    rng = np.random.default_rng(seed)
    X, y = planted_pair_data(rng, n=n, n_noise=4)
    return LabeledDataset(
        values=X,
        feature_names=[f"g{j}" for j in range(X.shape[1])],
        sample_ids=[f"s{i}" for i in range(n)],
        labels=y,
        class_names=["neg", "pos"],
    )


def fast_config(**kw):
    # 15 epochs need learning_rate 1e-2 to fit the planted pair; at the 1e-3
    # default the model is still below chance when training stops.
    return PipelineConfig(
        mining=MiningConfig(mu=1),
        training=TrainConfig(epochs_max=15, batch_size=32, dropout=0.1, learning_rate=1e-2),
        folds=kw.pop("folds", 3),
        depth=1,
        head_hidden=8,
        seed=42,
        **kw,
    )


class TestPipelineConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("folds", 1, "folds must be >= 2, got 1"),
        ("preselect_m", 0, "preselect_m must be >= 1, got 0"),
        ("depth", -1, "depth must be >= 0, got -1"),
        ("head_hidden", -3, "head_hidden must be >= 0, got -3"),
    ])
    def test_rejects_a_bad_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            PipelineConfig(**{field: value})

    def test_head_only_depth_zero_is_valid(self):
        cfg = PipelineConfig(depth=0, head_hidden=0, preselect_m=1, folds=2)
        assert (cfg.depth, cfg.head_hidden) == (0, 0)


class TestCrossValidate:
    def test_end_to_end_metrics(self):
        res = cross_validate(synthetic_dataset(), fast_config())
        assert len(res.folds) == 3
        s = res.summary()
        assert 0.5 <= s["auroc_mean"] <= 1.0
        assert 0.0 <= s["acc_mean"] <= 1.0
        for f in res.folds:
            assert f.accounting["width"] >= 1
            assert f.accounting["bir_active"] == 2 * f.accounting["width"]

    def test_deterministic_csv(self):
        a = cross_validate(synthetic_dataset(), fast_config()).to_csv()
        b = cross_validate(synthetic_dataset(), fast_config()).to_csv()
        assert a == b

    def test_matched_baseline_reported(self):
        res = cross_validate(synthetic_dataset(), fast_config(), include_matched=True)
        assert res.matched_folds is not None
        s = res.summary()
        assert s["compression_ratio"] > 1.0
        csv = res.to_csv()
        assert "matched_mlp" in csv
        assert "ratio,matched_over_birdnet" in csv

    def test_each_fold_keeps_its_training_history(self):
        cfg = fast_config()
        cfg.training.patience = 3
        res = cross_validate(synthetic_dataset(), cfg, include_matched=True)
        for f in res.folds + res.matched_folds:
            h = f.history
            epochs = len(h.train_loss)
            assert len(h.val_loss) == len(h.val_acc) == epochs
            assert h.val_loss[h.best_epoch] == min(h.val_loss)
            if h.stopped_early:
                assert epochs - 1 - h.best_epoch == cfg.training.patience
            else:
                assert epochs == cfg.training.epochs_max

    def test_summary_population_std(self):
        res = cross_validate(synthetic_dataset(), fast_config())
        aurocs = np.array([f.auroc for f in res.folds])
        assert res.summary()["auroc_std"] == pytest.approx(aurocs.std(), abs=1e-15)

    def test_matched_mlp_copies_the_folds_construction(self, monkeypatch):
        import birdnet.evaluate as evaluate

        builds = []

        def counting_build(*args, **kwargs):
            builds.append(args[0].shape)
            return build_birdnet(*args, **kwargs)

        monkeypatch.setattr(evaluate, "build_birdnet", counting_build)
        res = cross_validate(synthetic_dataset(), fast_config(), include_matched=True)
        assert len(builds) == 3  # one construction per fold, shared by both models
        for f, m in zip(res.folds, res.matched_folds):
            assert m.report is f.report
            assert [b.linear.out_dim for b in m.net.blocks] == [b.linear.out_dim for b in f.net.blocks]
            assert m.net.meta["matched_mlp"] and "matched_mlp" not in f.net.meta

    def test_no_fold_outlives_its_fold(self, monkeypatch):
        # Every eval-mode cache and fit matrix of a fold is freed before the
        # next fold's fit starts; CPython's refcounting makes this exact.
        import birdnet.evaluate as evaluate

        refs, checked = [], []
        forward, fit = BirNetwork.forward, evaluate.fit_on_rows

        def tracking_forward(self, X, mode="eval", **kwargs):
            logits, cache = forward(self, X, mode, **kwargs)
            if mode == "eval":
                for key in ("block_in", "head_in"):
                    refs.extend(weakref.ref(a) for a in cache[key])
            return logits, cache

        def checked_fit(*args, **kwargs):
            checked.append(len(refs))
            assert all(r() is None for r in refs), "an earlier fold's arrays are still alive"
            out = fit(*args, **kwargs)
            refs.append(weakref.ref(out.X))
            return out

        monkeypatch.setattr(BirNetwork, "forward", tracking_forward)
        monkeypatch.setattr(evaluate, "fit_on_rows", checked_fit)
        res = cross_validate(synthetic_dataset(), fast_config(), include_matched=True)
        assert len(res.folds) == len(res.matched_folds) == 3
        assert checked[0] == 0 and 0 < checked[1] < checked[2]

    def test_preselection_applied(self):
        cfg = fast_config()
        cfg.preselect_m = 3
        res = cross_validate(synthetic_dataset(), cfg)
        for f in res.folds:
            assert f.net.input_dim == 3
            assert len(f.net.meta["selected_features"]) == 3


class TestFitOnRows:
    def test_stages(self):
        ds, cfg = synthetic_dataset(), fast_config()
        built = fit_on_rows(ds, cfg, until="build")
        assert len(built.nets) == 1 and built.histories == []
        assert built.nets[0].meta["trained"] is False
        assert "standardizer" in built.nets[0].meta
        assert np.allclose(built.X.mean(axis=0), 0.0) and np.allclose(built.X.std(axis=0), 1.0)
        for stage in ("standardize", "mine"):
            with pytest.raises(ValueError, match="unknown stage"):
                fit_on_rows(ds, cfg, until=stage)

    def test_all_rows_one_row_major_copy(self, monkeypatch):
        import birdnet.dataio as dataio

        ds, cfg = synthetic_dataset(), fast_config()
        want = (ds.values - ds.values.mean(axis=0)) / ds.values.std(axis=0)
        X = ds.values.copy()
        narrowed, cols, _ = preselect_and_standardize(X, ds.labels, 3)
        assert narrowed.shape == (ds.n, 3) and cols.size == 3
        assert np.array_equal(X, ds.values)  # narrowing copies before it writes

        def no_selection(*args):
            raise AssertionError("ANOVA ran with nothing to select")

        monkeypatch.setattr(dataio, "anova_f_select", no_selection)
        fit = fit_on_rows(ds, cfg, until="build")
        assert fit.X.flags.c_contiguous and fit.X.flags.owndata
        X = np.array(ds.values, order="C")
        out, cols, _ = preselect_and_standardize(X, ds.labels, cfg.preselect_m)
        assert out is X and np.array_equal(cols, np.arange(ds.d))
        assert out.tobytes() == fit.X.tobytes()
        assert np.allclose(out, want, rtol=0.0, atol=1e-12)
        assert fit.names == ds.feature_names

    @pytest.mark.parametrize("preselect_m", [None, 3])
    def test_every_row_is_the_fit_on_all_row_indices(self, tmp_path, preselect_m):
        # The CLI's planted fixture, read back from its CSV.
        X, y = planted_pair_data(np.random.default_rng(0), n=200, n_noise=4)
        write_csv(str(tmp_path / "data.csv"), X, y, id_col=True)
        ds = load_csv(str(tmp_path / "data.csv"), "diagnosis", id_column="sample")
        cfg = fast_config(preselect_m=preselect_m)
        a, b = fit_on_rows(ds, cfg), fit_on_rows(ds, cfg, np.arange(ds.n))
        assert a.X.shape[1] == (preselect_m or ds.d)
        assert np.array_equal(a.X, b.X) and a.names == b.names
        na, nb = a.nets[0], b.nets[0]
        sa, sb = na.snapshot(), nb.snapshot()
        assert sa.keys() == sb.keys()
        assert all(np.array_equal(sa[k], sb[k]) for k in sa)
        for ba, bb in zip(na.blocks, nb.blocks, strict=True):
            assert all(np.array_equal(getattr(ba.linear.bindings, f.name), getattr(bb.linear.bindings, f.name))
                       for f in fields(ba.linear.bindings))
        assert na.meta == nb.meta


class TestHoldoutRules:
    def test_split_sizes_and_rules(self):
        ds = synthetic_dataset(n=300)
        net, rules, report = holdout_rules_run(ds, fast_config(), test_fraction=0.2)
        assert rules
        # planted rule over (g0, g1) scores near-perfectly for class "pos"
        best = max(
            (r for r in rules if r.class_name == "pos"), key=lambda r: r.precision
        )
        assert best.precision >= 0.9
        assert net.meta["trained"] is True

    def test_eighty_twenty_arithmetic(self):
        # n=1080 stratified over 8 classes: 864 train / 216 held out.
        from birdnet.dataio import stratified_holdout

        labels = np.repeat(np.arange(8), 135)
        mask = stratified_holdout(labels, 0.2, 42)
        assert int(mask.sum()) == 216 and int((~mask).sum()) == 864

    def test_rules_computed_on_holdout_only(self):
        # Perturbing training rows after the fact cannot change rule metrics:
        # re-run with training-row values shuffled among themselves post hoc.
        ds = synthetic_dataset(n=300)
        cfg = fast_config()
        _, rules_a, _ = holdout_rules_run(ds, cfg, test_fraction=0.2)
        from birdnet.dataio import stratified_holdout

        test_mask = stratified_holdout(ds.labels, 0.2, cfg.seed)
        # same pipeline, but nuke a non-test feature value before extraction:
        # extraction uses only test rows, so metrics must be identical when
        # we recompute them directly.
        from birdnet.evaluate import fit_on_rows
        from birdnet.explain import extract_rules

        train_rows = np.flatnonzero(~test_mask)
        val_mask = stratified_holdout(ds.labels[train_rows], VAL_FRACTION, cfg.seed + 1)
        net = fit_on_rows(ds, cfg, train_rows, val_mask).nets[0]
        test_rows = np.flatnonzero(test_mask)
        cols, std = net.meta["selected_features"], net.meta["standardizer"]
        X_test = (ds.values[np.ix_(test_rows, cols)] - std["means"]) / std["stddevs"]
        rules_b = extract_rules(net, X_test, ds.labels[test_rows],
                                cfg.rule_min_support)
        assert [(r.unit, r.class_index, r.precision, r.recall, r.support)
                for r in rules_a] == [
            (r.unit, r.class_index, r.precision, r.recall, r.support)
            for r in rules_b
        ]
