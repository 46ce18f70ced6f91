"""Seeded latent-module tabular data for the benchmark.

Each of `modules` latent modules has a binary state per row (prevalence drawn
in [0.3, 0.7]) and a bimodal factor that follows the state. Its features are
followers of the factor, negated followers, one AND feature (this module's
state and the next module's) and one OR feature of the same two states, so
the mined graph holds equivalences (T4), opposites (T5) and directed
implications (T0..T3). Pure-noise columns are independent of everything.
The class buckets the number of high states among the first `label_modules`
modules into `classes` equal ranges, and a `label_noise` share of rows gets a
uniformly redrawn class.

The structure (module count and sizes, the kinds of feature) does not depend
on the seed; only the draws and the column order do, so the amount of mining
work per job is nearly the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    n: int
    modules: int
    followers: int  # per module
    negations: int  # per module
    noise_cols: int
    label_modules: int = 2
    classes: int = 3
    label_noise: float = 0.10
    feature_noise: float = 0.35  # stddev around the two factor levels 0 and 2

    @property
    def d(self) -> int:
        return self.modules * (self.followers + self.negations + 2) + self.noise_cols


@dataclass
class Table:
    values: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in [0, classes)
    feature_names: list[str]
    links: list[frozenset]  # per feature: the modules it depends on (empty for noise)
    class_names: list[str]


def generate(shape: Shape, seed: int) -> Table:
    """Draw one table; the same (shape, seed) always gives the same table."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, M = shape.n, shape.modules
    prevalence = rng.uniform(0.3, 0.7, size=M)
    states = rng.random((n, M)) < prevalence
    factor = 2.0 * states + rng.normal(0.0, 0.25, size=(n, M))

    cols: list[np.ndarray] = []
    links: list[frozenset] = []
    for k in range(M):
        nxt = (k + 1) % M
        for _ in range(shape.followers):
            scale = rng.uniform(0.5, 2.0)
            cols.append(scale * (factor[:, k] + rng.normal(0.0, shape.feature_noise, n)))
            links.append(frozenset({k}))
        for _ in range(shape.negations):
            cols.append(2.0 - factor[:, k] + rng.normal(0.0, shape.feature_noise, n))
            links.append(frozenset({k}))
        both = states[:, k] & states[:, nxt]
        either = states[:, k] | states[:, nxt]
        for gate in (both, either):
            cols.append(2.0 * gate + rng.normal(0.0, shape.feature_noise, n))
            links.append(frozenset({k, nxt}))
    for _ in range(shape.noise_cols):
        cols.append(rng.normal(0.0, 1.0, n))
        links.append(frozenset())

    # Shuffle column order so module members are not contiguous.
    order = rng.permutation(len(cols))
    values = np.stack([cols[c] for c in order], axis=1)
    links = [links[c] for c in order]

    high = states[:, : shape.label_modules].sum(axis=1)
    labels = (high * shape.classes // (shape.label_modules + 1)).astype(np.int64)
    flip = rng.random(n) < shape.label_noise
    labels[flip] = rng.integers(0, shape.classes, size=int(flip.sum()))
    names = [f"g{j:04d}" for j in range(values.shape[1])]
    return Table(values, labels, names, links, [f"c{c}" for c in range(shape.classes)])


def write_csv(table: Table, path: str) -> np.ndarray:
    """Write `id,<features>,label` rows and return the matrix exactly as
    the file stores it: cells are rounded to 4 decimals and written in their
    shortest round-trip form, so parsing a cell gives back the same double."""
    stored = np.round(table.values, 4)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id," + ",".join(table.feature_names) + ",label\n")
        for i, row in enumerate(stored.tolist()):
            cells = ",".join(map(repr, row))
            fh.write(f"r{i},{cells},{table.class_names[table.labels[i]]}\n")
    return stored


def linked_pairs(links: list[frozenset]) -> set[tuple[int, int]]:
    """Unordered feature pairs (i < j) that share a latent module."""
    by_module: dict[int, list[int]] = {}
    for j, mods in enumerate(links):
        for m in mods:
            by_module.setdefault(m, []).append(j)
    pairs = set()
    for members in by_module.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                i, j = members[a], members[b]
                pairs.add((min(i, j), max(i, j)))
    return pairs
