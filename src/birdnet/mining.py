"""Pairwise Boolean implication tests and typed implication graphs.

Six implication types over binarized feature pairs (a, b):
  T0: a high -> b high     T1: a low -> b low
  T2: a high -> b low      T3: a low -> b high
  T4: a equivalent b (T0 and T1 in both orientations)
  T5: a opposite b   (T2 and T3 in both orientations)

A directional type asserts when its violating quadrant of the 2x2
contingency table is significantly sparser than the independence null
(lower tail of a binomial on the exception count) and the exception
fraction, conditional on the antecedent, stays below the cap.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "MiningConfig",
    "Implication",
    "EdgeTable",
    "ImplicationGraph",
    "log_binom_lower_tail",
    "test_pair",
    "mine_birs",
    "deduplicate_and_cap",
    "export_graph",
    "graph_to_tsv",
    "read_graph_tsv",
]

_LN_HALF = math.log(0.5)

TYPES = ("T0", "T1", "T2", "T3", "T4", "T5")


@dataclass
class MiningConfig:
    p_star: float = 1e-6  # significance threshold on the lower-tail p-value
    pi: float = 0.05  # max exception fraction, conditional on the antecedent
    h_max: int = 5000  # per-layer implication cap
    mu: int = 10  # layer construction stops below this count
    min_support: int = 5  # minimum antecedent support to assert

    def __post_init__(self):
        if not 0.0 < self.p_star < 1.0:
            raise ValueError(f"p_star must be in (0,1), got {self.p_star}")
        if not 0.0 <= self.pi < 0.5:
            raise ValueError(f"pi must be in [0, 0.5), got {self.pi}")
        if self.h_max < 1:
            raise ValueError(f"h_max must be >= 1, got {self.h_max}")


@dataclass(frozen=True)
class Implication:
    """One edge as `test_pair` returns it; the library's edges are EdgeTable rows."""

    source: int
    target: int
    btype: str  # T0..T5
    log_p: float  # natural-log p-value, <= 0
    exceptions: int
    exception_fraction: float
    antecedent_support: int


@dataclass(eq=False)
class EdgeTable:
    """Edges as parallel columns; row k is edge k. btype holds codes into TYPES.
    Every table, however built, holds the edge-row rule `_EDGE_RULE`, or raises."""

    source: np.ndarray  # int64
    target: np.ndarray  # int64
    btype: np.ndarray  # uint8
    log_p: np.ndarray  # float64, natural-log p-value, <= 0
    exceptions: np.ndarray  # int64
    antecedent_support: np.ndarray  # int64; exceptions / support is the exception fraction

    def __post_init__(self):
        cols = [getattr(self, name) for name in _COLUMNS]
        dtypes = [np.dtype(getattr(c, "dtype", object)).name for c in cols]  # either byte order
        if dtypes != _DTYPE_NAMES or len({c.shape for c in cols}) != 1 or cols[0].ndim != 1:
            raise ValueError(f"edge columns {_COLUMNS} need one 1-D length, dtypes {_DTYPE_NAMES}")
        src, tgt, btype, log_p, exc, supp = cols
        ok = (btype < len(TYPES)) & (np.minimum(src, tgt) >= 0) & (src != tgt) & np.isfinite(log_p)
        ok &= (log_p <= 0.0) & (exc >= 0) & (exc <= supp) & (supp >= 1)
        if not ok.all():
            row = int(np.argmin(ok))
            err = ValueError(f"edge row {row} needs {_EDGE_RULE}, got {[c[row].item() for c in cols]}")
            err.row = row  # the row's index, which read_graph_tsv reports as its line
            raise err

    def take(self, idx) -> EdgeTable:
        return EdgeTable(*(getattr(self, name)[idx] for name in _COLUMNS))

    def _rows(self):
        """Rows as tuples of Python scalars, type as its name."""
        cols = [getattr(self, name).tolist() for name in _COLUMNS]
        cols[2] = [TYPES[c] for c in cols[2]]
        return zip(*cols)

    def __len__(self) -> int:
        return self.source.shape[0]


_COLUMNS = tuple(f.name for f in fields(EdgeTable))
_DTYPE_NAMES = ["int64", "int64", "uint8", "float64", "int64", "int64"]
_EDGE_RULE = "a type below 6, distinct inputs >= 0, a finite log_p <= 0, 0 <= exceptions <= support >= 1"
# The edge list's cells: the table's columns and the derived exception fraction.
_TSV_CELLS = "source target type log_p exceptions exception_fraction antecedent_support".split()


@dataclass
class ImplicationGraph:
    vertices: list[str]
    edges: EdgeTable

    @property
    def type_counts(self) -> Counter:
        counts = np.bincount(self.edges.btype, minlength=len(TYPES))
        return Counter({t: int(c) for t, c in zip(TYPES, counts) if c})


# ---------------------------------------------------------------------------
# Binomial lower tail in log space
# ---------------------------------------------------------------------------


def _log_choose(n: int, m: int) -> np.ndarray:
    """ln C(n, j) for j in 0..m, as running sums of ln((n - i + 1) / i)."""
    out = np.zeros(m + 1)
    i = np.arange(1, m + 1, dtype=np.float64)
    np.cumsum(np.log((n - i + 1) / i), out=out[1:])
    return out


def _log_sum_down(k: int, n: int, lp: float, lq: float) -> float:
    """ln of the sum of the binomial pmf terms j = k, k-1, ..., 0 (ln p = lp, ln(1-p)
    = lq), for k below the mean: the first by lgamma, the next ones by their ratios.
    The log pmf is concave, so the terms fall at least as fast as the first step, and
    the sum stops where they are 60 below the first (the rest is < n e^-60 of it)."""
    odds = lq - lp  # ln((1 - p) / p)
    m = 0 if k == 0 else min(k, math.ceil(-60.0 / (math.log(k / (n - k + 1)) + odds)))
    j = np.arange(k, k - m, -1.0)  # the steps j -> j - 1
    first = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * lp + (n - k) * lq
    return first + math.log1p(np.exp(np.cumsum(np.log(j / (n - j + 1)) + odds)).sum())


def log_binom_lower_tail(k: int, n: int, p: float) -> float:
    """ln P(K <= k) for K ~ Binomial(n, p), accurate in the log domain.

    Sums the pmf terms of the side away from the mean n*p: the lower tail when
    k is below it, else the upper tail P(K > k) = P(n - K <= n - k - 1), whose
    complement is taken with log1p(-exp(u)) below ln 1/2, log(-expm1(u)) above.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"binomial success probability must be in (0,1), got {p}")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == n:
        return 0.0
    lp, lq = math.log(p), math.log1p(-p)
    if k < n * p:
        return min(_log_sum_down(k, n, lp, lq), 0.0)
    u = _log_sum_down(n - k - 1, n, lq, lp)
    return math.log1p(-math.exp(u)) if u < _LN_HALF else math.log(-math.expm1(u))


def _lower_tail_batch(
    k: np.ndarray, n: int, p: np.ndarray, log_choose: np.ndarray
) -> np.ndarray:
    """Vectorized ln P(K <= k_i) for small k_i with per-candidate p_i.

    Valid for the mining prefilter regime (k well below n*p would make the
    tail large; results are clamped to <= 0 and only the comparison against
    ln p_star matters). log_choose[j] = ln C(n, j) for j <= max(k). Each row
    is scaled by its own max and summed left to right, read at its own k, so
    a result depends on (k_i, n, p_i) alone, not on the rest of the batch.
    """
    j = np.arange(int(k.max(initial=0)) + 1, dtype=np.float64)
    T = (
        log_choose[None, : j.size]
        + j[None, :] * np.log(p)[:, None]
        + (n - j[None, :]) * np.log1p(-p)[:, None]
    )
    T = np.where(j[None, :] <= k[:, None], T, -np.inf)
    top = T.max(axis=1)
    total = np.cumsum(np.exp(T - top[:, None]), axis=1)[np.arange(k.size), k]
    return np.minimum(top + np.log(total), 0.0)


# ---------------------------------------------------------------------------
# Pair testing
# ---------------------------------------------------------------------------


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def _clamped_marginal(count: int, n: int) -> float:
    lo = 1.0 / (2.0 * n)
    return min(max(count / n, lo), 1.0 - lo)


def test_pair(
    col_a: np.ndarray,
    col_b: np.ndarray,
    n: int,
    cfg: MiningConfig,
    a_index: int = 0,
    b_index: int = 1,
) -> list[Implication]:
    """Directional tests T0..T3 for the ordered pair (a, b).

    Returns the asserted implications before any T4/T5 merging. A pair with
    a degenerate column (all ones or all zeros) returns no assertions.
    """
    n1a = _popcount(col_a)
    n1b = _popcount(col_b)
    if n1a in (0, n) or n1b in (0, n):
        return []
    n11 = _popcount(col_a & col_b)
    n10 = n1a - n11
    n01 = n1b - n11
    n00 = n - n1a - n1b + n11
    p1a, p0a = _clamped_marginal(n1a, n), _clamped_marginal(n - n1a, n)
    p1b, p0b = _clamped_marginal(n1b, n), _clamped_marginal(n - n1b, n)
    cases = [
        ("T0", n10, n1a, p1a * p0b),
        ("T1", n01, n - n1a, p0a * p1b),
        ("T2", n11, n1a, p1a * p1b),
        ("T3", n00, n - n1a, p0a * p0b),
    ]
    out = []
    ln_p_star = math.log(cfg.p_star)
    for btype, k, supp, p0 in cases:
        if supp < cfg.min_support:
            continue
        frac = k / supp
        if frac > cfg.pi:
            continue
        log_p = log_binom_lower_tail(k, n, p0)
        if log_p <= ln_p_star:
            out.append(
                Implication(
                    source=a_index,
                    target=b_index,
                    btype=btype,
                    log_p=log_p,
                    exceptions=k,
                    exception_fraction=frac,
                    antecedent_support=supp,
                )
            )
    return out


# Quadrants by the type code of the orientation i -> j (i < j): the violating
# (source bit, target bit) cell. The orientation j -> i tests the same cell
# under the type _REV_TYPE[q].
_QUAD_BITS = np.array([(1, 0), (0, 1), (1, 1), (0, 0)])
_REV_TYPE = np.array([1, 0, 2, 3])
_TILE_ELEMS = 1 << 16  # pair counts per row tile (256 kB in float32)
_TAIL_ELEMS = 1 << 20  # tail terms evaluated per batch
_CANDIDATE_BUDGET = 1 << 20  # candidates held before their tails are evaluated


def _row_tile(d: int) -> int:
    return max(1, min(d, _TILE_ELEMS // max(d, 1)))


def _exception_caps(support: np.ndarray, cfg: MiningConfig) -> np.ndarray:
    """Per antecedent support s, the largest k with k / s <= pi (the float
    test `test_pair` makes); -1 where s < min_support. k / s is monotone in
    k, so stepping down from floor(pi * s) + 1 finds the exact boundary."""
    s = np.asarray(support, dtype=np.int64)
    k = np.floor(cfg.pi * s).astype(np.int64) + 1
    for _ in range(3):
        k = np.where((k > 0) & (k / np.maximum(s, 1) > cfg.pi), k - 1, k)
    return np.where(s >= cfg.min_support, k, -1)


def _candidate_tiles(bmat, cfg: MiningConfig, n1: np.ndarray, live: np.ndarray):
    """Per row tile of sources, the candidates (quadrant, i, j, k) over pairs
    i < j of live features, sorted by (quadrant, i, j).

    Pair counts N11 come from one GEMM per tile on the unpacked 0/1 matrix;
    float32 sums of 0/1 terms are exact below 2**24 rows. A quadrant is a
    candidate when its exception count k passes the support and pi caps in
    either orientation.
    """
    n = bmat.n
    dtype = np.float32 if n < 2**24 else np.float64
    idx = np.flatnonzero(live)
    words = np.ascontiguousarray(bmat.bits[idx]).view(np.uint8)
    B = np.unpackbits(words, axis=1, bitorder="little")[:, :n].astype(dtype)
    ones = n1[idx].astype(dtype)
    # caps[v]: the cap of each live feature as an antecedent with value v.
    caps = tuple(_exception_caps(s, cfg).astype(dtype) for s in (n - n1[idx], n1[idx]))
    rows = _row_tile(idx.size)
    for i0 in range(0, idx.size - 1, rows):
        i1 = min(i0 + rows, idx.size - 1)
        n11 = B[i0:i1] @ B[i0 + 1 :].T  # column c is live feature i0 + 1 + c
        a = ones[i0:i1, None]
        b = ones[None, i0 + 1 :]
        upper = np.ones(n11.shape, dtype=bool)
        upper[:, : i1 - i0] = np.triu(upper[:, : i1 - i0])
        exceptions = (a - n11, b - n11, n11, (n - a - b) + n11)  # in _QUAD_BITS order
        block = []
        for q, ((sb, tb), k) in enumerate(zip(_QUAD_BITS, exceptions)):
            need = (k <= caps[sb][i0:i1, None]) | (k <= caps[tb][None, i0 + 1 :])
            r, c = np.nonzero(need & upper)
            k = k[r, c].astype(np.int64)
            block.append((np.full(r.size, q), idx[r + i0], idx[c + i0 + 1], k))
        yield tuple(np.concatenate(x) for x in zip(*block))


class _Kernel:
    """Tail tests and the T4/T5 merge for blocks of candidates of one matrix."""

    def __init__(self, bmat, cfg: MiningConfig, n1: np.ndarray):
        n = bmat.n
        self.n, self.d, self.n1, self.cfg = n, bmat.d, n1, cfg
        lo = 1.0 / (2.0 * n)
        # prob[v]: clamped marginal P(feature == v).
        self.prob = (np.clip((n - n1) / n, lo, 1.0 - lo), np.clip(n1 / n, lo, 1.0 - lo))
        self.log_choose = _log_choose(n, int(math.floor(cfg.pi * n)) + 1)

    def log_p(self, q, i, j, k) -> np.ndarray:
        """Lower-tail log p-values, in chunks of about _TAIL_ELEMS terms."""
        sb, tb = _QUAD_BITS[q, 0], _QUAD_BITS[q, 1]
        p0 = np.where(sb == 1, self.prob[1][i], self.prob[0][i]) * np.where(
            tb == 1, self.prob[1][j], self.prob[0][j]
        )
        step = max(1, _TAIL_ELEMS // (int(k.max(initial=0)) + 1))
        out = np.empty(k.size)
        for s in range(0, k.size, step):
            part = slice(s, s + step)
            out[part] = _lower_tail_batch(k[part], self.n, p0[part], self.log_choose)
        return out

    def edges(self, q, i, j, k) -> tuple:
        """Edge columns (sort key, source, target, type, log_p, exceptions,
        support) asserted by a block of candidates, in mining output order."""
        n, d, n1, cfg = self.n, self.d, self.n1, self.cfg
        log_p = self.log_p(q, i, j, k)
        sig = log_p <= math.log(cfg.p_star)
        supp1 = np.where(_QUAD_BITS[q, 0] == 1, n1[i], n - n1[i])
        supp2 = np.where(_QUAD_BITS[q, 1] == 1, n1[j], n - n1[j])
        ok1 = sig & (k <= _exception_caps(supp1, cfg))
        ok2 = sig & (k <= _exception_caps(supp2, cfg))
        hit = ok1 | ok2
        q, i, j, k, log_p, ok1, ok2, supp1, supp2 = (
            x[hit] for x in (q, i, j, k, log_p, ok1, ok2, supp1, supp2)
        )
        # Per pair, T4 needs T0 and T1 in both orientations, T5 needs T2 and
        # T3; they replace their constituents.
        pair = i * d + j
        pairs, inv = np.unique(pair, return_inverse=True)
        both = np.zeros((pairs.size, 4), dtype=bool)
        both[inv, q] = ok1 & ok2
        pk = np.zeros((pairs.size, 4), dtype=np.int64)
        pk[inv, q] = k
        plp = np.zeros((pairs.size, 4))
        plp[inv, q] = log_p
        t4 = both[:, 0] & both[:, 1]
        t5 = both[:, 2] & both[:, 3]
        kept = ~np.where(q < 2, t4[inv], t5[inv])
        fwd, rev = ok1 & kept, ok2 & kept
        rq = _REV_TYPE[q]
        # Within a pair: T4, T5, the i -> j types, then the j -> i types.
        parts = []
        for code, mask, c0, c1 in ((4, t4, 0, 1), (5, t5, 2, 3)):
            exc = pk[mask, c0] + pk[mask, c1]
            p = pairs[mask]
            lp = np.maximum(plp[mask, c0], plp[mask, c1])
            code_col, supp = np.full(p.size, code), np.full(p.size, n)
            parts.append((p * 10 + code - 4, p // d, p % d, code_col, lp, exc, supp))
        for m, slot, src, tgt, btype, supp in (
            (fwd, 2 + q, i, j, q, supp1),
            (rev, 6 + rq, j, i, rq, supp2),
        ):
            key = pair[m] * 10 + slot[m]
            parts.append((key, src[m], tgt[m], btype[m], log_p[m], k[m], supp[m]))
        cols = [np.concatenate(x) for x in zip(*parts)]
        order = np.argsort(cols[0], kind="stable")
        return tuple(c[order] for c in cols)


def _batches(tiles):
    """Join consecutive tiles until a batch holds _CANDIDATE_BUDGET candidates.

    A source's candidates all come from one tile, so batch boundaries never
    split a pair's quadrants, and batches in tile order keep the edges in
    output order.
    """
    pending, held = [], 0
    for tile in tiles:
        pending.append(tile)
        held += tile[0].size
        if held >= _CANDIDATE_BUDGET:
            yield tuple(np.concatenate(x) for x in zip(*pending))
            pending, held = [], 0
    if pending:
        yield tuple(np.concatenate(x) for x in zip(*pending))


def _mine_kernel(bmat, cfg: MiningConfig) -> EdgeTable:
    n1 = np.bitwise_count(bmat.bits).sum(axis=1).astype(np.int64)
    live = (n1 > 0) & (n1 < bmat.n)
    kernel = _Kernel(bmat, cfg, n1)
    tiles = _candidate_tiles(bmat, cfg, n1, live)
    found = [kernel.edges(*batch) for batch in _batches(tiles)]
    if not found:
        found.append(kernel.edges(*(np.empty(0, dtype=np.int64),) * 4))
    _, src, tgt, btype, log_p, exc, supp = (np.concatenate(x) for x in zip(*found))
    return EdgeTable(src, tgt, btype.astype(np.uint8), log_p, exc, supp)


def mine_birs(bmat, cfg: MiningConfig, feature_names=None) -> ImplicationGraph:
    """Test all unordered pairs in both orientations and build the typed graph.

    Edges come out ordered by pair (i < j), then T4, T5, the i -> j types and
    the j -> i types, each group by type.
    """
    if bmat.d < 2:
        raise ValueError("mining needs at least 2 features")
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(bmat.d)]
    return ImplicationGraph(vertices=list(feature_names), edges=_mine_kernel(bmat, cfg))


# ---------------------------------------------------------------------------
# Dedup, cap, export
# ---------------------------------------------------------------------------

def deduplicate_and_cap(g: ImplicationGraph, h_max: int) -> EdgeTable:
    """Collapse orientation duplicates, rank by significance, cap the layer.

    Two directional edges that test the same violating quadrant (e.g. T0 a->b
    and T1 b->a) are one rule: the smaller log_p wins, ties keep the edge
    whose source has the lower index. Output is sorted ascending by log_p
    (most significant first), ties by (source, target, btype), then truncated.
    """
    t = g.edges
    row = np.arange(len(t))
    d = np.flatnonzero(t.btype < 4)
    src, tgt = t.source[d], t.target[d]
    forward = src < tgt
    lo, hi = np.minimum(src, tgt), np.maximum(src, tgt)
    sb, tb = _QUAD_BITS[t.btype[d]].T
    quad = np.where(forward, 2 * sb + tb, 2 * tb + sb)
    key = (lo * (int(hi.max(initial=0)) + 1) + hi) * 4 + quad
    best = np.lexsort((d, ~forward, t.log_p[d], key))
    first = np.ones(best.size, dtype=bool)
    first[1:] = key[best[1:]] != key[best[:-1]]
    keep = np.concatenate([np.flatnonzero(t.btype >= 4), d[best[first]]])
    order = keep[np.lexsort([c[keep] for c in (row, t.btype, t.target, t.source, t.log_p)])]
    return t.take(order[:h_max])


def graph_to_tsv(g: ImplicationGraph) -> str:
    names = g.vertices
    lines = ["\t".join(_TSV_CELLS)]
    for src, tgt, btype, log_p, exc, supp in g.edges._rows():
        lines.append(f"{names[src]}\t{names[tgt]}\t{btype}\t{log_p!r}\t{exc}\t{exc / supp!r}\t{supp}")
    return "\n".join(lines) + "\n"


def read_graph_tsv(text: str) -> ImplicationGraph:
    """The graph from an edge list written by graph_to_tsv, vertices numbered by first
    appearance. The fraction cell must be a number, though the table derives it. A line
    that does not parse, or whose row breaks the table's rule, is a ValueError naming it."""
    index: dict[str, int] = {}
    rows = []
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()][1:]
    for no, ln in lines:
        try:  # a wrong cell count, unknown type, or a number that does not parse or fit
            src, tgt, btype, log_p, exc, frac, supp = ln.split("\t")
            float(frac)  # a number, though the table derives it
            stats = (TYPES.index(btype), float(log_p), np.int64(exc), np.int64(supp))
        except (ValueError, OverflowError):
            raise ValueError(f"edge list line {no}: expected the {len(_TSV_CELLS)} tab-separated cells "
                             f"{_TSV_CELLS}, a type in {TYPES} and int64 counts, got {ln!r}") from None
        rows.append((index.setdefault(src, len(index)), index.setdefault(tgt, len(index)), *stats))
    cols = zip(*rows) if rows else [()] * len(_COLUMNS)
    try:
        edges = EdgeTable(*(np.array(c, dtype=t) for c, t in zip(cols, _DTYPE_NAMES)))
    except ValueError as e:  # here only a row can break the table's rule
        no, ln = lines[e.row]
        raise ValueError(f"edge list line {no}: needs {_EDGE_RULE}, got {ln!r}") from None
    return ImplicationGraph(vertices=list(index), edges=edges)


def export_graph(g: ImplicationGraph, path: str) -> None:
    """Write the graph as DOT; T4/T5 render undirected (dir=none)."""
    names = g.vertices
    lines = ["digraph implications {"]
    for name in names:
        lines.append(f'  "{name}";')
    for src, tgt, btype, log_p, *_ in g.edges._rows():
        attrs = f'label="{btype} {-log_p / math.log(10.0):.1f}"'
        if btype in ("T4", "T5"):
            attrs += ", dir=none"
        lines.append(f'  "{names[src]}" -> "{names[tgt]}" [{attrs}];')
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
