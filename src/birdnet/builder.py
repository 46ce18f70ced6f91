"""Greedy layer-wise construction: mine, stack a masked layer, re-mine on
post-activations, stop at the depth cap or when mining comes up short."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from birdnet.binarize import binarize, fit_binarization
from birdnet.dataio import mean_var
from birdnet.mining import MiningConfig, deduplicate_and_cap, mine_birs
from birdnet.network import BirNetwork, DenseLinear, build_bir_layer

__all__ = ["LayerReport", "ConstructionReport", "build_birdnet"]

# Post-activation features that are >= this fraction identical are treated as
# degenerate when mining deeper layers (zero-inflated ReLU outputs).
NEAR_CONSTANT_FRAC = 0.99


@dataclass
class LayerReport:
    layer: int
    mined_edges: int
    after_dedup_cap: int
    type_counts: dict[str, int]


@dataclass
class ConstructionReport:
    layers: list[LayerReport] = field(default_factory=list)

    def to_text(self) -> str:
        lines = ["layer\tmined\tkept\ttype_counts"]
        for lr in self.layers:
            tc = ",".join(f"{t}:{c}" for t, c in sorted(lr.type_counts.items()))
            lines.append(f"{lr.layer}\t{lr.mined_edges}\t{lr.after_dedup_cap}\t{tc}")
        return "\n".join(lines) + "\n"


def build_birdnet(
    X_train: np.ndarray,
    feature_names: list[str],
    class_names: list[str],
    cfg: MiningConfig,
    depth: int = 2,
    head_hidden: int = 32,
    seed: int = 42,
) -> tuple[BirNetwork, ConstructionReport]:
    """Construct an untrained implication-structured network on training rows.

    Loop per layer: binarize the current representation with per-feature step
    thresholds, mine implications, deduplicate and cap at h_max; stop when
    fewer than mu survive. Deeper representations are the post-activation
    outputs of the partial stack on the full training fold: each block's BN
    running statistics are set to its full-fold batch statistics and the
    block runs through its eval-mode fold, so construction is deterministic.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    if X_train.shape[0] < 2 or X_train.shape[1] < 2:
        raise ValueError("need at least 2 rows and 2 features to build")
    if len(feature_names) != X_train.shape[1]:
        raise ValueError(f"{len(feature_names)} feature names for {X_train.shape[1]} columns")
    rng = np.random.Generator(np.random.PCG64(seed))
    report = ConstructionReport()
    blocks = []
    H = X_train
    for ell in range(depth):
        if H.shape[1] < 2:
            break  # a single-unit layer leaves nothing to pair
        near = 1.0 if ell == 0 else NEAR_CONSTANT_FRAC
        model = fit_binarization(H, near_constant_frac=near)
        bmat = binarize(H, model)
        graph = mine_birs(bmat, cfg, feature_names=feature_names if ell == 0 else None)
        spec = deduplicate_and_cap(graph, cfg.h_max)
        report.layers.append(
            LayerReport(
                layer=ell,
                mined_edges=len(graph.edges),
                after_dedup_cap=len(spec),
                type_counts=dict(sorted(graph.type_counts.items())),
            )
        )
        if len(spec) < cfg.mu:
            if ell == 0:
                raise ValueError(
                    f"first mining pass found only {len(spec)} implications "
                    f"(floor mu={cfg.mu}); relax p_star/pi or lower mu"
                )
            break
        block = build_bir_layer(spec, H.shape[1], rng)
        blocks.append(block)
        block.bn.set_stats(*mean_var(block.linear.forward(H)))
        if ell < depth - 1:  # the top block's outputs feed no mining pass
            H = block.linear.folded(H, block.fold())
            np.maximum(H, 0.0, out=H)

    widths = [blocks[-1].linear.out_dim if blocks else X_train.shape[1], len(class_names)]
    if head_hidden and head_hidden > 0:
        widths.insert(1, head_hidden)
    head = [DenseLinear.init(a, b, rng) for a, b in zip(widths, widths[1:])]
    net = BirNetwork(feature_names, blocks, head, class_names, {"seed": seed, "mining": asdict(cfg)})
    return net, report
