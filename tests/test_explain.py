import numpy as np
import pytest

from birdnet.explain import (
    extract_rules,
    lrp_explain,
    rule_text,
    rules_to_csv,
    unit_activity,
)
from birdnet.network import BirNetwork, DenseHead, DenseLinear, PairLinear, BatchNorm
from birdnet.builder import build_birdnet
from birdnet.mining import MiningConfig
from helpers import (
    TYPES,
    edge_rows,
    edge_table,
    inference_nets,
    min_carried_denominator,
    oracle_eval_forward,
    oracle_extract_rules,
    oracle_lrp_explain,
    planted_pair_data,
    random_pair_net,
)
from birdnet.network import BirBlock


class TestRuleText:
    def test_all_templates(self):
        table = edge_table([(0, 1, t) for t in TYPES] + [(1, 0, "T2")])
        assert [rule_text(table, k, ["A", "B"]) for k in range(len(table))] == [
            "A -> B", "!A -> !B", "A -> !B", "!A -> B", "A == B", "A == !B", "B -> !A",
        ]


class TestUnitActivity:
    def test_matches_forward_cache(self):
        rng = np.random.default_rng(0)
        net = random_pair_net(rng, d=6, widths=(5,), k=3)
        X = rng.normal(size=(12, 6))
        act = unit_activity(net, X)
        _, cache = net.forward(X, mode="eval")
        assert np.array_equal(act, cache["post_bn"][0] > 0)
        assert act.shape == (12, 5)

    def test_requires_blocks(self):
        rng = np.random.default_rng(0)
        net = random_pair_net(rng, d=4, widths=(), k=2, head_hidden=3)
        with pytest.raises(ValueError):
            unit_activity(net, rng.normal(size=(5, 4)))

    def test_matches_unfolded_oracle(self):
        for seed in range(8):
            for name, net in inference_nets(seed):
                X = np.random.default_rng(seed).normal(size=(50, net.input_dim))
                want = oracle_eval_forward(net, X)[1]["post_bn"][0] > 0.0
                assert np.array_equal(unit_activity(net, X), want), (seed, name)

    def test_unit_at_the_kink_is_inactive(self):
        net = single_path_net()  # unit = a + 0.5 b, BatchNorm scale exactly 1
        act = unit_activity(net, np.array([[1.0, -2.0], [1.0, -1.0]]))
        assert act[:, 0].tolist() == [False, True]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rows(self, bad):
        rng = np.random.default_rng(0)
        net = random_pair_net(rng, d=6, widths=(5,), k=3)
        X = rng.normal(size=(4, 6))
        X[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            unit_activity(net, X)


class TestExtractRules:
    def _net_and_data(self, seed=0):
        rng = np.random.default_rng(seed)
        X, y = planted_pair_data(rng, n=600, n_noise=4)
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        Xs = (X - mu) / sd
        net, _ = build_birdnet(Xs[:400], [f"g{j}" for j in range(6)],
                               ["neg", "pos"], MiningConfig(mu=1), depth=1, seed=seed)
        return net, Xs[400:], y[400:]

    def test_metric_identities(self):
        net, X, y = self._net_and_data()
        records = extract_rules(net, X, y, min_support=10)
        assert records
        prevalence = {c: float((y == c).mean()) for c in (0, 1)}
        by_unit = {}
        for r in records:
            assert r.lift * prevalence[r.class_index] == pytest.approx(
                r.precision, abs=1e-12
            )
            assert 0.0 <= r.precision <= 1.0
            assert 0.0 <= r.recall <= 1.0
            by_unit.setdefault(r.unit, []).append(r)
        for unit, rs in by_unit.items():
            if len(rs) == 2:  # both classes present for this unit
                assert sum(r.precision for r in rs) == pytest.approx(1.0, abs=1e-12)
                assert all(r.support == rs[0].support for r in rs)

    def test_planted_unit_has_high_precision(self):
        net, X, y = self._net_and_data()
        records = extract_rules(net, X, y, min_support=10)
        planted = [
            r for r in records
            if {r.source, r.target} == {0, 1}
            and r.class_name == "pos"
        ]
        assert planted
        assert max(r.precision for r in planted) >= 0.95

    def test_records_read_their_unit_binding(self):
        net, X, y = self._net_and_data()
        records = extract_rules(net, X, y, min_support=10)
        assert records
        bindings, names = net.blocks[0].linear.bindings, net.feature_names
        rows = edge_rows(bindings)
        for r in records:
            assert (r.source, r.target, r.btype) == rows[r.unit][:3]
            assert r.rule == rule_text(bindings, r.unit, names)

    def test_min_support_filters(self):
        net, X, y = self._net_and_data()
        all_records = extract_rules(net, X, y, min_support=1)
        strict = extract_rules(net, X, y, min_support=10**9)
        assert strict == []
        assert all(r.support >= 1 for r in all_records)

    def test_sorted_by_class_then_precision(self):
        net, X, y = self._net_and_data()
        records = extract_rules(net, X, y, min_support=10)
        keys = [(r.class_index, -r.precision, -r.lift, r.unit) for r in records]
        assert keys == sorted(keys)

    def test_empty_holdout_rejected(self):
        net, X, y = self._net_and_data()
        with pytest.raises(ValueError):
            extract_rules(net, X[:0], y[:0], min_support=10)

    @pytest.mark.parametrize("bad", [
        lambda y: y[:-1],  # one label short
        lambda y: np.where(np.arange(y.size) == 0, 7, y),  # a class the net lacks
        lambda y: y.astype(np.float64),  # not integer class indices
    ], ids=["short", "class_outside", "float"])
    def test_malformed_labels_rejected(self, bad):
        net, X, y = self._net_and_data()
        with pytest.raises(ValueError, match="integer class indices in 0..1, one per row"):
            extract_rules(net, X, bad(y), min_support=10)

    def test_matches_loop_oracle(self):
        net, X, y = self._net_and_data()
        for min_support in (1, 10, 40):
            records = extract_rules(net, X, y, min_support=min_support)
            want = oracle_extract_rules(net, X, y, min_support)
            assert records == want
            assert rules_to_csv(records) == rules_to_csv(want)
        for seed in range(6):
            for name, net in inference_nets(seed):
                if name == "matched_mlp":  # no rules: test_dense_block_0_has_no_rules
                    continue
                rng = np.random.default_rng(seed)
                X = rng.normal(size=(80, net.input_dim))
                y = rng.integers(0, net.n_classes - 1, 80)  # the last class absent
                assert extract_rules(net, X, y, 1) == oracle_extract_rules(net, X, y, 1), (seed, name)

    def test_dense_block_0_has_no_rules(self):
        # A matched MLP's dense units implement no mined implication.
        *_, (name, mlp) = inference_nets(0)
        X = np.random.default_rng(0).normal(size=(80, mlp.input_dim))
        with pytest.raises(ValueError, match="block 0 is a dense layer, whose units have no rules"):
            extract_rules(mlp, X, np.arange(80) % mlp.n_classes, 1)

    def test_csv_output(self):
        net, X, y = self._net_and_data()
        records = extract_rules(net, X, y, min_support=10)
        text = rules_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "class,rule,precision,recall,lift,support,unit"
        assert len(lines) == len(records) + 1


def single_path_net():
    """One unit, one head weight: relevance has a single path, so layer-0
    relevance equals the logit contribution exactly (up to epsilon)."""
    lin = PairLinear(edge_table([(0, 1, "T0")]), [1.0], [0.5], 2)
    bn = BatchNorm(1)
    bn.set_stats(np.zeros(1), np.ones(1) - 1e-5)  # scale exactly 1
    blk = BirBlock(linear=lin, bn=bn)
    head = DenseHead([DenseLinear(np.array([[2.0], [0.0]]), np.zeros(2))])
    return BirNetwork(["a", "b"], [blk], head, ["c0", "c1"])


class TestLrp:
    def test_single_path_conservation_and_value(self):
        net = single_path_net()
        x = np.array([3.0, 2.0])  # unit value = 3 + 1 = 4, logit c0 = 8
        trace = lrp_explain(net, x, target_class=0)
        assert trace.target_logit == pytest.approx(8.0, abs=1e-9)
        assert trace.layer_relevances[0][0] == pytest.approx(8.0, rel=1e-5)
        assert trace.conservation_total == pytest.approx(8.0, rel=1e-4)
        assert trace.chain == [(0, 0, "a -> b", pytest.approx(8.0, rel=1e-5))]

    def test_inactive_target_gets_zero_relevance(self):
        net = single_path_net()
        trace = lrp_explain(net, np.array([3.0, 2.0]), target_class=1)
        # logit c1 is 0 (zero weight row): nothing to distribute
        assert trace.target_logit == 0.0
        assert trace.conservation_total == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("target", [-1, 3, 2.0, True, np.bool_(False), "1"])
    def test_rejects_target_outside_classes(self, target):
        net = random_pair_net(np.random.default_rng(7), d=6, widths=(5,), k=3)
        with pytest.raises(ValueError, match=r"is not a class index in 0\.\.2"):
            lrp_explain(net, np.ones(6), target)

    def test_no_target_explains_the_predicted_class(self):
        net = random_pair_net(np.random.default_rng(7), d=6, widths=(5,), k=3)
        for x in np.random.default_rng(8).normal(size=(12, 6)):
            want = lrp_explain(net, x, int(np.argmax(net.forward(x[None], mode="eval")[0])))
            assert lrp_explain(net, x).to_text() == lrp_explain(net, x, None).to_text() == want.to_text()
        tied = random_pair_net(np.random.default_rng(7), d=6, widths=(5,), k=3)
        tied.head.layers[-1].W[:] = 0.0
        tied.head.layers[-1].b[:] = 0.0
        trace = lrp_explain(tied, np.ones(6))
        assert trace.target_class == trace.predicted_class == tied.class_names[0]  # ties go to the lowest index

    def test_accepts_numpy_integer_target(self):
        net = random_pair_net(np.random.default_rng(7), d=6, widths=(5,), k=3)
        for target in (np.int64(2), np.uint8(2), np.int32(0)):
            got, want = lrp_explain(net, np.ones(6), target), lrp_explain(net, np.ones(6), int(target))
            assert got.target_class == want.target_class
            assert np.array_equal(got.layer_relevances[0], want.layer_relevances[0])

    def test_conservation_on_random_nets(self):
        checked = 0
        for s in range(60):
            rng = np.random.default_rng(1000 + s)
            net = random_pair_net(rng, d=6, widths=(5, 4), k=3,
                                  head_hidden=4 if s % 2 else None)
            x = rng.normal(size=6)
            logits, _ = net.forward(x.reshape(1, -1), mode="eval")
            target = int(np.argmax(np.abs(logits[0])))
            if abs(logits[0, target]) < 0.1:
                continue
            # Units active purely through their BatchNorm shift absorb
            # relevance into it; conservation only holds for input-carried units.
            if min_carried_denominator(net, x) < 1e-3:
                continue
            trace = lrp_explain(net, x, target)
            rel_err = abs(trace.conservation_total - trace.target_logit) / abs(
                trace.target_logit
            )
            assert rel_err < 0.01, f"seed {s}: leakage {rel_err}"
            checked += 1
            if checked >= 20:
                break
        assert checked >= 20

    def test_chain_descends_through_bindings(self):
        rng = np.random.default_rng(5)
        net = random_pair_net(rng, d=6, widths=(5, 4), k=3)
        x = rng.normal(size=6)
        trace = lrp_explain(net, x, 0)
        assert len(trace.chain) == 2
        (l0, u0, _, _), (l1, u1, _, _) = trace.chain
        assert (l0, l1) == (0, 1)
        top = net.blocks[1].linear.bindings
        assert u0 in (top.source[u1], top.target[u1])
        assert u1 == int(np.argmax(trace.layer_relevances[1]))

    def test_matches_unfolded_oracle(self):
        for seed in range(15):
            for name, net in inference_nets(seed):
                rng = np.random.default_rng(seed)
                for _ in range(4):
                    x = rng.normal(size=net.input_dim)
                    target = int(rng.integers(net.n_classes))
                    got = lrp_explain(net, x, target)
                    want = oracle_lrp_explain(net, x, target)
                    assert got.target_logit == pytest.approx(want.target_logit, rel=0, abs=1e-12)
                    assert got.predicted_class == want.predicted_class
                    assert [c[:3] for c in got.chain] == [c[:3] for c in want.chain], (seed, name)
                    for rg, rw in zip(got.layer_relevances, want.layer_relevances):
                        assert np.abs(rg - rw).max() <= 1e-12 * np.abs(rw).max(), (seed, name)

    def test_chain_text_matches_oracle_names(self):
        # A deeper block's rule names units of the block below, derived from
        # the bindings; the oracle builds every block's name list in full.
        for seed in range(5):
            for name, net in inference_nets(seed):
                x = np.random.default_rng(seed).normal(size=net.input_dim)
                got, want = lrp_explain(net, x, 0), oracle_lrp_explain(net, x, 0)
                assert [c[2] for c in got.chain] == [c[2] for c in want.chain], (seed, name)
                assert got.to_text().splitlines()[1] == want.to_text().splitlines()[1]
                if name == "pair+head_hidden":
                    assert "(L0/u" in got.chain[2][2] and "L1/u" in got.chain[2][2]

    def test_dense_blocks_have_no_chain(self):
        # The relevances still flow through a matched MLP's dense blocks, but
        # its units have no rules, so no chain and no chain line.
        for seed in range(3):
            *_, (name, mlp) = inference_nets(seed)
            x = np.random.default_rng(seed).normal(size=mlp.input_dim)
            got, want = lrp_explain(mlp, x, 1), oracle_lrp_explain(mlp, x, 1)
            assert got.chain == want.chain == []
            assert len(got.layer_relevances) == mlp.depth == 3
            for rg, rw in zip(got.layer_relevances, want.layer_relevances, strict=True):
                assert np.abs(rg - rw).max() <= 1e-12 * np.abs(rw).max(), seed
            assert "~>" not in got.to_text()

    def test_trace_text(self):
        net = single_path_net()
        net.meta["trained"] = False
        trace = lrp_explain(net, np.array([3.0, 2.0]), 0, instance_id="s7")
        text = trace.to_text()
        assert "instance s7" in text
        assert "[a -> b]" in text
        assert "class = c0" in text
        assert "warning" in text  # untrained network flagged

    def test_relevances_that_overflow_raise(self):
        # A finite logit of 1e303 that no input carries: its share overflows.
        net = single_path_net()
        net.head.layers[0] = DenseLinear(np.zeros((2, 1)), np.array([1e303, 0.0]))
        assert lrp_explain(net, np.array([3.0, 2.0]), 1).conservation_total == 0.0
        with pytest.raises(ValueError, match="the relevances are not finite"):
            lrp_explain(net, np.array([3.0, 2.0]), 0)

    def test_untrained_flag_default_true(self):
        net = single_path_net()
        trace = lrp_explain(net, np.array([1.0, 1.0]), 0)
        assert trace.trained
