import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birdnet.mining import (
    EdgeTable,
    ImplicationGraph,
    MiningConfig,
    deduplicate_and_cap,
    export_graph,
    graph_to_tsv,
    log_binom_lower_tail,
    mine_birs,
    read_graph_tsv,
)
from birdnet.mining import test_pair as pair_tests
from helpers import (
    Edge,
    assert_edges_match,
    bmat_from_bools,
    edge_rows,
    edge_table,
    mp_log_lower_tail,
    mp_log_lower_tail_curve,
    naive_mine,
    pack_column,
)


class TestLogBinomLowerTail:
    def test_worked_example(self):
        # P(K <= 2) for Binomial(10, 0.1) = 0.92981; ln = -0.07278
        assert log_binom_lower_tail(2, 10, 0.1) == pytest.approx(-0.07278, abs=1e-5)

    def test_k_equals_n(self):
        assert log_binom_lower_tail(7, 7, 0.3) == 0.0

    def test_k_zero(self):
        # P(K <= 0) = (1-p)^n exactly
        assert log_binom_lower_tail(0, 50, 0.2) == pytest.approx(
            50 * math.log(0.8), rel=1e-12
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            log_binom_lower_tail(3, 10, 0.0)
        with pytest.raises(ValueError):
            log_binom_lower_tail(3, 10, 1.0)
        with pytest.raises(ValueError):
            log_binom_lower_tail(11, 10, 0.5)
        with pytest.raises(ValueError):
            log_binom_lower_tail(-1, 10, 0.5)

    @given(
        st.integers(min_value=1, max_value=200),
        st.floats(min_value=0.001, max_value=0.999),
        st.data(),
    )
    @settings(max_examples=60)
    def test_against_arbitrary_precision(self, n, p, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        got = log_binom_lower_tail(k, n, p)
        want = mp_log_lower_tail(k, n, p)
        assert got == want or abs(got - want) <= 1e-10 * max(abs(want), 1e-300)

    def test_monotone_in_k(self):
        vals = [log_binom_lower_tail(k, 40, 0.3) for k in range(41)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == 0.0

    def test_curve_matches_scalar(self):
        # Every k of each curve, against the arbitrary-precision oracle.
        for n, p in [(1, 0.5), (17, 0.05), (100, 0.9), (64, 0.001)]:
            scalars = np.array([log_binom_lower_tail(k, n, p) for k in range(n + 1)])
            np.testing.assert_allclose(scalars, mp_log_lower_tail_curve(n, p), rtol=1e-12, atol=0.0)

    def test_kernel_tail_ignores_its_batch(self):
        # A row's kernel log p-value does not depend on the other rows of its
        # batch: rows with a larger k widen the batch but not its sums. With
        # k near n * p many terms weigh alike, so a summation order that
        # changed with the batch width would change the last bits.
        import birdnet.mining as mining

        n = 1000
        log_choose = mining._log_choose(n, 51)
        k = np.arange(8, 52)
        p = (k + 1) / n
        together = mining._lower_tail_batch(k, n, p, log_choose)
        alone = [mining._lower_tail_batch(k[r : r + 1], n, p[r : r + 1], log_choose)
                 for r in range(k.size)]
        assert together.tolist() == np.concatenate(alone).tolist()
        reordered = mining._lower_tail_batch(k[::-1], n, p[::-1], log_choose)
        assert reordered.tolist() == together[::-1].tolist()
        for kk, pp, got in zip(k[::7], p[::7], together[::7]):
            assert got == pytest.approx(mp_log_lower_tail(int(kk), n, float(pp)), rel=1e-9)

    def test_accurate_near_zero_log(self):
        # Lower tail barely below 1: the complement branch keeps precision.
        got = log_binom_lower_tail(99, 100, 0.5)
        want = mp_log_lower_tail(99, 100, 0.5)
        assert got == pytest.approx(want, rel=1e-10)
        assert got != 0.0


CFG = MiningConfig()


def cols(bools_a, bools_b):
    return pack_column(np.asarray(bools_a)), pack_column(np.asarray(bools_b))


class TestTestPair:
    def test_identical_columns(self):
        rng = np.random.default_rng(0)
        a = np.zeros(200, dtype=bool)
        a[rng.permutation(200)[:100]] = True
        ca, cb = cols(a, a)
        got = pair_tests(ca, cb, 200, CFG)
        types = {e.btype for e in got}
        assert types == {"T0", "T1"}
        assert all(e.exceptions == 0 for e in got)
        # p0 = 0.25; ln P(K<=0) = 200 ln 0.75 ~ -57.5, far below ln 1e-6
        for e in got:
            assert e.log_p == pytest.approx(200 * math.log(0.75), rel=1e-12)

    def test_negated_columns(self):
        rng = np.random.default_rng(0)
        a = np.zeros(200, dtype=bool)
        a[rng.permutation(200)[:100]] = True
        ca, cb = cols(a, ~a)
        types = {e.btype for e in pair_tests(ca, cb, 200, CFG)}
        assert types == {"T2", "T3"}

    def test_independent_balanced_no_assertion(self):
        # All four quadrants exactly 100: every exception count equals its
        # expectation, so each lower-tail p-value is ~0.5.
        a = np.repeat([True, True, False, False], 100)
        b = np.tile(np.repeat([True, False], 100), 2)
        ca, cb = cols(a, b)
        assert pair_tests(ca, cb, 400, CFG) == []

    def test_degenerate_column_no_assertion(self):
        a = np.ones(100, dtype=bool)
        b = np.zeros(100, dtype=bool)
        b[:50] = True
        ca, cb = cols(a, b)
        assert pair_tests(ca, cb, 100, CFG) == []

    def test_min_support_gate(self):
        a = np.zeros(200, dtype=bool)
        a[:4] = True  # antecedent support 4 < 5
        b = a.copy()
        ca, cb = cols(a, b)
        types = {e.btype for e in pair_tests(ca, cb, 200, CFG)}
        assert "T0" not in types and "T2" not in types

    def test_exception_fraction_gate(self):
        # 10% violations of a->b exceeds pi=0.05 even if significant.
        a = np.zeros(400, dtype=bool)
        a[:200] = True
        b = a.copy()
        b[:20] = False
        ca, cb = cols(a, b)
        t0 = [e for e in pair_tests(ca, cb, 400, CFG) if e.btype == "T0"]
        assert t0 == []
        loose = MiningConfig(pi=0.15)
        t0 = [e for e in pair_tests(ca, cb, 400, loose) if e.btype == "T0"]
        assert len(t0) == 1
        assert t0[0].exceptions == 20
        assert t0[0].exception_fraction == pytest.approx(0.1)
        assert t0[0].antecedent_support == 200

    @given(st.data())
    @settings(max_examples=40)
    def test_stricter_config_asserts_subset(self, data):
        n = data.draw(st.integers(min_value=20, max_value=120))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        a = rng.random(n) < 0.5
        b = a ^ (rng.random(n) < 0.15)
        ca, cb = cols(a, b)
        loose = MiningConfig(p_star=1e-2, pi=0.3, min_support=3)
        strict = MiningConfig(p_star=1e-4, pi=0.1, min_support=6)
        loose_types = {e.btype for e in pair_tests(ca, cb, n, loose)}
        strict_types = {e.btype for e in pair_tests(ca, cb, n, strict)}
        assert strict_types <= loose_types


def random_correlated_bools(rng, n, d):
    """Binary matrix with planted copies/negations/noisy copies, so mining
    has something to find at small n."""
    B = np.empty((n, d), dtype=bool)
    B[:, 0] = rng.random(n) < rng.uniform(0.2, 0.8)
    for j in range(1, d):
        mode = rng.integers(4)
        if mode == 0:
            B[:, j] = rng.random(n) < rng.uniform(0.1, 0.9)
        else:
            src = B[:, int(rng.integers(j))]
            if mode == 1:
                B[:, j] = src
            elif mode == 2:
                B[:, j] = ~src
            else:
                B[:, j] = src ^ (rng.random(n) < 0.05)
    return B


class TestMineBirs:
    def test_matches_naive_reference(self):
        rng = np.random.default_rng(7)
        configs = [
            MiningConfig(),
            MiningConfig(p_star=1e-4, pi=0.1),
            MiningConfig(p_star=1e-3, pi=0.2, min_support=3),
        ]
        checked_nonempty = 0
        for trial in range(60):
            n = int(rng.integers(8, 101))
            d = int(rng.integers(2, 9))
            B = random_correlated_bools(rng, n, d)
            cfg = configs[trial % len(configs)]
            got = edge_rows(mine_birs(bmat_from_bools(B), cfg).edges)
            want = naive_mine(B, cfg)
            assert_edges_match(got, want)
            checked_nonempty += bool(want)
        assert checked_nonempty >= 20  # the oracle comparison had teeth

    def test_sequential_equals_vectorized(self):
        # The whole-matrix kernel against the per-sample oracle, row order
        # included: pairs ascending, T4/T5 first, then i->j, then j->i.
        rng = np.random.default_rng(11)
        B = random_correlated_bools(rng, 150, 12)
        got = edge_rows(mine_birs(bmat_from_bools(B), CFG).edges)
        want = naive_mine(B, CFG)
        assert [t[:3] for t in got] == [t[:3] for t in want]
        assert_edges_match(got, want)
        assert len(got) > 0

    def test_kernel_tiles_and_tail_batches(self, monkeypatch):
        # Pairs straddle row tiles, n is not a multiple of 64, some columns
        # are constant, and source 0's (1, 0)-quadrant candidates carry 0..5
        # exceptions, so one tail batch holds tails of mixed length.
        import birdnet.mining as mining

        rng = np.random.default_rng(43)
        n, d = 150, 24
        B = random_correlated_bools(rng, n, d)
        B[:, 5] = True
        B[:, 17] = False
        base = rng.random(n) < 0.5
        B[:, 0] = base
        ones = np.flatnonzero(base)
        for c, flips in zip(range(1, 7), range(6)):
            if c == 5:
                continue
            B[:, c] = base
            B[ones[:flips], c] = False
        monkeypatch.setattr(mining, "_TILE_ELEMS", 5 * d)
        assert mining._row_tile(d) < d
        got = edge_rows(mine_birs(bmat_from_bools(B), CFG).edges)
        want = naive_mine(B, CFG)
        assert [t[:3] for t in got] == [t[:3] for t in want]
        assert_edges_match(got, want)
        exc = {t[4] for t in got if t[0] == 0 and t[1] <= 6}
        assert len(exc) >= 3
        assert not any(5 in t[:2] or 17 in t[:2] for t in got)
        # Tiling and batching do not touch a single bit of the output.
        monkeypatch.setattr(mining, "_TILE_ELEMS", 1)
        monkeypatch.setattr(mining, "_CANDIDATE_BUDGET", 1)
        monkeypatch.setattr(mining, "_TAIL_ELEMS", 1)
        assert edge_rows(mine_birs(bmat_from_bools(B), CFG).edges) == got

    def test_column_swap_symmetry(self):
        # Swapping two columns relabels the edges but changes nothing else.
        rng = np.random.default_rng(17)
        B = random_correlated_bools(rng, 100, 6)
        swapped = B[:, [1, 0, 2, 3, 4, 5]]
        relabel = {0: 1, 1: 0, 2: 2, 3: 3, 4: 4, 5: 5}
        base = {
            (e.source, e.target, e.btype, e.exceptions)
            for e in edge_rows(mine_birs(bmat_from_bools(B), CFG).edges)
        }
        # T4/T5 are stored with source < target, so re-canonicalize.
        def canon(edges):
            out = set()
            for s, t, b, x in edges:
                if b in ("T4", "T5") and s > t:
                    s, t = t, s
                out.add((s, t, b, x))
            return out

        moved = {
            (relabel[e.source], relabel[e.target], e.btype, e.exceptions)
            for e in edge_rows(mine_birs(bmat_from_bools(swapped), CFG).edges)
        }
        assert canon(base) == canon(moved)

    def test_negating_a_column_maps_types(self):
        # Negating column b swaps quadrants: T0<->T2, T1<->T3, T4<->T5.
        rng = np.random.default_rng(19)
        a = rng.random(300) < 0.5
        b = a ^ (rng.random(300) < 0.02)
        pairmap = {"T0": "T2", "T2": "T0", "T1": "T3", "T3": "T1",
                   "T4": "T5", "T5": "T4"}
        base = edge_rows(mine_birs(bmat_from_bools(np.column_stack([a, b])), CFG).edges)
        flipped = edge_rows(mine_birs(bmat_from_bools(np.column_stack([a, ~b])), CFG).edges)
        assert {(e.source, e.target, pairmap[e.btype]) for e in base} == {
            (e.source, e.target, e.btype) for e in flipped
        }

    def test_t4_from_equivalent_pair(self):
        rng = np.random.default_rng(23)
        a = rng.random(200) < 0.5
        edges = edge_rows(mine_birs(bmat_from_bools(np.column_stack([a, a])), CFG).edges)
        assert [e.btype for e in edges] == ["T4"]
        e = edges[0]
        assert (e.source, e.target) == (0, 1)
        assert e.exceptions == 0 and e.antecedent_support == 200

    def test_t5_from_negated_pair(self):
        rng = np.random.default_rng(29)
        a = rng.random(200) < 0.5
        g = mine_birs(bmat_from_bools(np.column_stack([a, ~a])), CFG)
        assert [e.btype for e in edge_rows(g.edges)] == ["T5"]

    def test_type_counts(self):
        rng = np.random.default_rng(31)
        a = rng.random(200) < 0.5
        B = np.column_stack([a, a, rng.random(200) < 0.5])
        g = mine_birs(bmat_from_bools(B), CFG)
        assert dict(g.type_counts) == {"T4": 1}

    def test_needs_two_features(self):
        with pytest.raises(ValueError):
            mine_birs(bmat_from_bools(np.ones((10, 1), dtype=bool)), CFG)

    @pytest.mark.parametrize("h_max", [0, -2])
    def test_h_max_below_one_rejected(self, h_max):
        # A negative cap once kept all but |h_max| edges by a negative slice.
        with pytest.raises(ValueError, match=f"h_max must be >= 1, got {h_max}"):
            MiningConfig(h_max=h_max)


class TestEdgeTable:
    """Every table checks the edge-row rule when it is built."""

    GOOD = (3, 1, "T2", -7.5, 4, 40)

    @pytest.mark.parametrize("column, value", [
        ("btype", 6), ("source", -1), ("target", -2), ("target", 3), ("log_p", np.nan),
        ("log_p", np.inf), ("log_p", -np.inf), ("log_p", 5.0), ("log_p", 1e-300),
        ("exceptions", -1), ("exceptions", 41), ("antecedent_support", 0),
        ("antecedent_support", -4),
    ], ids=["type-6", "source-negative", "target-negative", "self-loop", "log_p-nan", "log_p-inf",
            "log_p-minus-inf", "log_p-positive", "log_p-tiny-positive", "exceptions-negative",
            "exceptions-above-support", "support-0", "support-negative"])
    def test_rejects_bad_row_naming_it(self, column, value):
        t = edge_table([self.GOOD] * 3)
        cols = {name: getattr(t, name).copy() for name in Edge._fields}
        cols[column][2] = value
        with pytest.raises(ValueError, match=r"edge row 2 needs a type below 6, distinct inputs >= 0, "
                                             r"a finite log_p <= 0, 0 <= exceptions <= support >= 1") as err:
            EdgeTable(**cols)
        assert err.value.row == 2

    def test_accepts_rule_boundaries(self):
        # log_p 0, exceptions equal to the support, support 1, and input 0.
        rows = [(0, 1, "T0", 0.0, 1, 1), (1, 0, "T5", -0.0, 0, 1), self.GOOD]
        assert [tuple(e) for e in edge_rows(edge_table(rows))] == rows
        assert len(edge_table([])) == 0

    def test_columns_need_their_dtypes_and_one_length(self):
        t = edge_table([self.GOOD])
        cols = [getattr(t, name) for name in Edge._fields]
        swapped = [c.astype(c.dtype.newbyteorder()) for c in cols]
        assert edge_rows(EdgeTable(*swapped)) == edge_rows(t)  # either byte order
        message = "edge columns .* need one 1-D length"
        for bad in (
            [cols[0].astype(np.int32), *cols[1:]],  # a dtype not its own
            [np.concatenate([cols[0], cols[0]]), *cols[1:]],  # two lengths
            [c.reshape(1, 1) for c in cols],  # 2-D
            [cols[0].tolist(), *cols[1:]],  # not an array
        ):
            with pytest.raises(ValueError, match=message):
                EdgeTable(*bad)

    def test_take_checks_its_rows_too(self):
        t = edge_table([self.GOOD, (0, 2, "T0")])
        assert edge_rows(t.take([1])) == edge_rows(t)[1:]
        t.exceptions[1] = 99  # an edit in place bypasses the check until a new table is built
        with pytest.raises(ValueError, match="edge row 0 needs"):
            t.take([1])


class TestDedup:
    def test_orientation_duplicates_collapse(self):
        # T0 a->b and T1 b->a test the same (1,0) quadrant: one rule.
        e1 = (0, 1, "T0", -30.0, 0, 50)
        e2 = (1, 0, "T1", -30.0, 0, 60)
        g = ImplicationGraph(["a", "b"], edge_table([e1, e2]))
        kept = deduplicate_and_cap(g, 100)
        assert edge_rows(kept) == [e1]  # tie on log_p: source < target wins

    def test_smaller_log_p_wins(self):
        e1 = (0, 1, "T0", -30.0, 1, 50)
        e2 = (1, 0, "T1", -40.0, 1, 60)
        kept = deduplicate_and_cap(ImplicationGraph(["a", "b"], edge_table([e1, e2])), 100)
        assert edge_rows(kept) == [e2]

    def test_distinct_quadrants_kept(self):
        e1 = (0, 1, "T0", -30.0, 0, 50)  # quadrant (1,0)
        e2 = (0, 1, "T1", -25.0, 0, 50)  # quadrant (0,1)
        kept = deduplicate_and_cap(ImplicationGraph(["a", "b"], edge_table([e1, e2])), 100)
        assert edge_rows(kept) == [e1, e2]  # sorted by log_p ascending

    def test_cap(self):
        edges = edge_table([(i, i + 1, "T0", -10.0 - i, 0, 50) for i in range(20)])
        kept = deduplicate_and_cap(ImplicationGraph([f"f{i}" for i in range(21)], edges), 5)
        assert len(kept) == 5
        assert kept.source.tolist() == [19, 18, 17, 16, 15]

    def test_exactly_one_edge_for_duplicated_feature(self):
        rng = np.random.default_rng(37)
        a = rng.random(200) < 0.5
        c = rng.random(200) < 0.5
        g = mine_birs(bmat_from_bools(np.column_stack([a, a, c])), CFG)
        kept = edge_rows(deduplicate_and_cap(g, 100))
        assert [e[:3] for e in kept] == [(0, 1, "T4")]


class TestGraphIO:
    def _graph(self):
        rng = np.random.default_rng(41)
        a = rng.random(200) < 0.5
        b = a ^ (rng.random(200) < 0.02)
        c = rng.random(200) < 0.5
        return mine_birs(
            bmat_from_bools(np.column_stack([a, b, c])), CFG,
            feature_names=["alpha", "beta", "gamma"],
        )

    def test_tsv_round_trip(self):
        g = self._graph()
        assert len(g.edges) > 0
        g2 = read_graph_tsv(graph_to_tsv(g))
        named = lambda g: [(g.vertices[e.source], g.vertices[e.target], *e[2:])
                           for e in edge_rows(g.edges)]
        assert named(g2) == named(g)
        assert graph_to_tsv(g2) == graph_to_tsv(g)

    def test_fraction_cell_is_exceptions_over_support(self):
        # The table keeps exceptions and support; the edge list writes their
        # quotient, for directional and merged (T4/T5, support n) edges alike.
        g = mine_birs(bmat_from_bools(random_correlated_bools(np.random.default_rng(11), 150, 12)), CFG)
        lines = graph_to_tsv(g).splitlines()
        assert lines[0].split("\t")[4:] == ["exceptions", "exception_fraction", "antecedent_support"]
        assert {ln.split("\t")[2] for ln in lines[1:]} >= {"T0", "T4"}
        for ln in lines[1:]:
            exc, frac, supp = ln.split("\t")[4:]
            assert frac == repr(int(exc) / int(supp))

    def test_read_empty_edge_list(self):
        g = read_graph_tsv(graph_to_tsv(ImplicationGraph(["a"], edge_table([]))))
        assert g.vertices == [] and len(g.edges) == 0 and g.type_counts == {}

    @pytest.mark.parametrize("bad", [
        "a\tb\tT0\t-30.0\t0\t0.0",  # six cells
        "a\tb\tT0\t-30.0\t0\t0.0\t50\t1",  # eight cells
        "a\tb\tT9\t-30.0\t0\t0.0\t50",  # unknown type
        "a\tb\tT0\t-30.0\t0.5\t0.0\t50",  # exceptions not an integer
        "a\tb\tT0\tlow\t0\t0.0\t50",  # log_p not a number
        "a\tb\tT0\t-30.0\t0\tnone\t50",  # fraction not a number
        "a\tb\tT0\t-30.0\t0\t0.0\t0",  # no support: the fraction cell is exceptions / support
        "a\tb\tT0\t-30.0\t99999999999999999999\t0.0\t50",  # a count past int64
        "a\tb\tT0\tnan\t0\t0.0\t50",  # log_p not finite
        "a\tb\tT0\t-inf\t0\t0.0\t50",
        "a\tb\tT0\t5.0\t0\t0.0\t50",  # log_p above 0
        "a\tb\tT0\t-30.0\t-1\t0.0\t50",  # exceptions below 0
        "a\tb\tT0\t-30.0\t51\t0.0\t50",  # exceptions above the support
        "a\ta\tT0\t-30.0\t0\t0.0\t50",  # a self-loop
    ])
    def test_read_names_malformed_line(self, bad):
        good = "a\tb\tT0\t-30.0\t0\t0.0\t50"
        header = graph_to_tsv(ImplicationGraph([], edge_table([])))
        assert len(read_graph_tsv(f"{header}{good}\n\n{good}\n").edges) == 2
        with pytest.raises(ValueError, match="edge list line 4: "):
            read_graph_tsv(f"{header}{good}\n\n{bad}\n")

    def test_dot_export(self, tmp_path):
        g = self._graph()
        path = tmp_path / "graph.dot"
        export_graph(g, str(path))
        text = path.read_text()
        assert text.startswith("digraph")
        assert '"alpha"' in text
        for e in edge_rows(g.edges):
            if e.btype in ("T4", "T5"):
                assert "dir=none" in text
