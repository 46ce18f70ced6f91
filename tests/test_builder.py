import numpy as np
import pytest

from birdnet.builder import build_birdnet
from birdnet.explain import _input_name
from birdnet.mining import MiningConfig
from birdnet.network import PairLinear, active_param_count, save_network
from helpers import dense_weight, edge_rows, planted_pair_data


def duplicated_feature_data(rng, n=300, groups=30, noise=0.05):
    """Each of `groups` independent base features appears twice, so mining
    can plant one T4 (equivalence) per group."""
    base = rng.random((n, groups)) < 0.5
    cols = []
    for g in range(groups):
        cols.append(base[:, g] * 2.0 + rng.normal(0, noise, n))
        cols.append(base[:, g] * 2.0 + rng.normal(0, noise, n))
    return np.stack(cols, axis=1)


def nested_implication_data(rng, n=300, groups=8, noise=0.05):
    """Duplicated base features where each even base implies the next odd
    one, so mining finds implications again among first-layer units."""
    base = rng.random((n, groups)) < 0.5
    base[:, 1::2] = base[:, 0::2] | (rng.random((n, groups // 2)) < 0.3)
    X = np.repeat(base * 2.0, 2, axis=1) + rng.normal(0, noise, (n, 2 * groups))
    return (X - X.mean(axis=0)) / X.std(axis=0)


class TestBuildBirdnet:
    def test_planted_duplicates_fill_first_layer(self):
        rng = np.random.default_rng(0)
        X = duplicated_feature_data(rng, groups=30)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        net, report = build_birdnet(
            X, [f"g{j}" for j in range(60)], ["a", "b"], MiningConfig(mu=10),
            depth=2, seed=0,
        )
        assert net.blocks[0].linear.out_dim >= 30
        assert report.layers[0].after_dedup_cap == net.blocks[0].linear.out_dim
        planted = {
            (min(e.source, e.target), max(e.source, e.target))
            for e in edge_rows(net.blocks[0].linear.bindings)
            if e.btype == "T4"
        }
        assert {(2 * g, 2 * g + 1) for g in range(30)} <= planted

    def test_stop_rule_below_mu(self):
        # Independent noise: the first pass finds (nearly) nothing.
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 8))
        with pytest.raises(ValueError, match="mu"):
            build_birdnet(X, [f"g{j}" for j in range(8)], ["a", "b"],
                          MiningConfig(mu=10), depth=2, seed=0)

    def test_depth_capped_when_deeper_mining_dries_up(self):
        rng = np.random.default_rng(2)
        X, _ = planted_pair_data(rng, n=300, n_noise=4)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        net, report = build_birdnet(
            X, [f"g{j}" for j in range(6)], ["a", "b"], MiningConfig(mu=1),
            depth=3, seed=0,
        )
        assert 1 <= net.depth <= 3
        assert len(report.layers) >= net.depth

    def test_h_max_budget_respected(self):
        rng = np.random.default_rng(3)
        X = duplicated_feature_data(rng, groups=20)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        cfg = MiningConfig(mu=5, h_max=12)
        net, report = build_birdnet(X, [f"g{j}" for j in range(40)], ["a", "b"],
                                    cfg, depth=2, seed=0)
        for blk in net.blocks:
            assert blk.linear.out_dim <= 12
        for lr in report.layers:
            assert lr.after_dedup_cap <= 12

    def test_sparsity_bound_on_every_layer(self):
        rng = np.random.default_rng(4)
        X = duplicated_feature_data(rng, groups=15)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        net, _ = build_birdnet(X, [f"g{j}" for j in range(30)], ["a", "b"],
                               MiningConfig(mu=5), depth=2, seed=0)
        for blk in net.blocks:
            assert isinstance(blk.linear, PairLinear)
            d = blk.linear.in_dim
            assert blk.linear.mask().mean() <= 2.0 / d
            W = dense_weight(blk.linear)
            assert int((W != 0.0).sum()) <= 2 * blk.linear.out_dim

    def test_deterministic_given_seed(self, tmp_path):
        rng = np.random.default_rng(5)
        X = duplicated_feature_data(rng, groups=10)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        paths = []
        for i in range(2):
            net, _ = build_birdnet(X, [f"g{j}" for j in range(20)], ["a", "b"],
                                   MiningConfig(mu=5), depth=2, seed=42)
            p = tmp_path / f"net{i}.json"
            save_network(net, str(p))
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_seed_changes_weights_not_structure(self):
        rng = np.random.default_rng(6)
        X = duplicated_feature_data(rng, groups=10)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        n1, _ = build_birdnet(X, [f"g{j}" for j in range(20)], ["a", "b"],
                              MiningConfig(mu=5), depth=1, seed=1)
        n2, _ = build_birdnet(X, [f"g{j}" for j in range(20)], ["a", "b"],
                              MiningConfig(mu=5), depth=1, seed=2)
        assert edge_rows(n1.blocks[0].linear.bindings) == edge_rows(n2.blocks[0].linear.bindings)
        assert not np.array_equal(n1.blocks[0].linear.w_src, n2.blocks[0].linear.w_src)

    def test_running_stats_seeded_with_fold_statistics(self):
        rng = np.random.default_rng(7)
        X = duplicated_feature_data(rng, groups=10)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        net, _ = build_birdnet(X, [f"g{j}" for j in range(20)], ["a", "b"],
                               MiningConfig(mu=5), depth=1, seed=0)
        blk = net.blocks[0]
        z = blk.linear.forward(X)
        assert np.allclose(blk.bn.running_mean, z.mean(axis=0))
        assert np.allclose(blk.bn.running_var, z.var(axis=0))

    def test_head_shapes(self):
        rng = np.random.default_rng(8)
        X = duplicated_feature_data(rng, groups=10)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        net, _ = build_birdnet(X, [f"g{j}" for j in range(20)], ["a", "b", "c"],
                               MiningConfig(mu=5), depth=1, head_hidden=16, seed=0)
        assert [l.out_dim for l in net.head] == [16, 3]
        direct, _ = build_birdnet(X, [f"g{j}" for j in range(20)], ["a", "b", "c"],
                                  MiningConfig(mu=5), depth=1, head_hidden=0, seed=0)
        assert [l.out_dim for l in direct.head] == [3]

    def test_accounting_totals(self):
        rng = np.random.default_rng(9)
        X = duplicated_feature_data(rng, groups=10)
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        net, _ = build_birdnet(X, [f"g{j}" for j in range(20)], ["a", "b"],
                               MiningConfig(mu=5), depth=1, head_hidden=8, seed=0)
        h = net.blocks[0].linear.out_dim
        acc = active_param_count(net)
        assert acc["width"] == h
        assert acc["bir_active"] == 2 * h
        head = (h * 8 + 8) + (8 * 2 + 2)
        assert acc["total_active"] == 2 * h + 2 * h + head

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_birdnet(np.zeros((1, 5)), [f"g{j}" for j in range(5)], ["a"],
                          MiningConfig())
        with pytest.raises(ValueError):
            build_birdnet(np.zeros((10, 1)), ["g0"], ["a"], MiningConfig())

    def test_name_count_must_match_columns(self, monkeypatch):
        # One name for six columns once built and saved a model that
        # load_network then refused; it now fails before any mining.
        import birdnet.builder as builder

        monkeypatch.setattr(builder, "mine_birs", None)
        X = duplicated_feature_data(np.random.default_rng(3), groups=3)
        with pytest.raises(ValueError, match="1 feature names for 6 columns"):
            build_birdnet(X, ["g0"], ["a", "b"], MiningConfig(mu=1), depth=1)

    def test_deeper_layer_unit_names_reference_lower_units(self):
        rng = np.random.default_rng(10)
        X = nested_implication_data(rng)
        net, _ = build_birdnet(X, [f"g{j}" for j in range(16)], ["a", "b"],
                               MiningConfig(mu=5), depth=3, seed=0)
        assert net.depth == 3
        # Block ell + 1's inputs are block ell's units: names derived on demand.
        for ell in (1, 2):
            for k in range(net.blocks[ell].linear.out_dim):
                name = _input_name(net, ell + 1, k)
                assert name.startswith(f"L{ell}/u{k}:") and name.count("L0/") == 2 ** ell
