"""Symbolic rule extraction and per-instance relevance traces.

A first-layer unit is "active" on a sample when its post-ReLU output is
positive; only block 0 is evaluated. Rules are scored on held-out data:
precision = P(class | active), recall = P(active | class), lift = precision /
class prevalence, with every hit count from one `active.T @ onehot(labels)`.

Per-instance explanations propagate the target logit backward with an
epsilon-stabilized relevance rule over the folded layers the eval forward
runs, with each block's `Fold` read from that forward's cache. A
block's BatchNorm shift, not a bias (blocks have none), and each head layer's
bias absorb no relevance, so the propagated total is conserved up to the
epsilon leakage. Dense layers propagate matrix-free,
R_in = a * (W^T (s * R / stab(s * W a))), and pair layers scatter with one
`np.bincount`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from birdnet.mining import TYPES, EdgeTable
from birdnet.network import BirNetwork, Fold, PairLinear
from birdnet.trainer import check_labels, softmax

__all__ = [
    "RuleRecord",
    "RelevanceTrace",
    "unit_activity",
    "extract_rules",
    "rules_to_csv",
    "lrp_explain",
]

LRP_EPSILON = 1e-6  # the epsilon rule's stabilizer, stab(z) = z + LRP_EPSILON * sign(z)

# By type code T0..T5.
_RULE_TEMPLATES = (
    "{a} -> {b}",
    "!{a} -> !{b}",
    "{a} -> !{b}",
    "!{a} -> {b}",
    "{a} == {b}",
    "{a} == !{b}",
)


def rule_text(bindings: EdgeTable, k: int, input_names) -> str:
    """Row k of a binding table as a rule over the named inputs (any mapping
    from input index to name)."""
    return _RULE_TEMPLATES[bindings.btype[k]].format(
        a=input_names[bindings.source[k]], b=input_names[bindings.target[k]]
    )


def _input_name(net: BirNetwork, ell: int, j: int) -> str:
    """Name of input j of block ell: feature j under block 0, else unit j of
    block ell - 1 as L{ell-1}/u{j}:{type}({a},{b}) over that block's inputs.
    Derived from the pair layers' bindings on demand; no name list is ever built."""
    if ell == 0:
        return net.feature_names[j]
    b = net.blocks[ell - 1].linear.bindings
    a, c = (_input_name(net, ell - 1, int(i)) for i in (b.source[j], b.target[j]))
    return f"L{ell - 1}/u{j}:{TYPES[b.btype[j]]}({a},{c})"


@dataclass
class RuleRecord:
    unit: int
    source: int  # the unit's bound inputs, indices into the block's input names
    target: int
    btype: str  # T0..T5
    rule: str  # human-readable, over named features
    class_index: int
    class_name: str
    precision: float
    recall: float
    lift: float
    support: int


@dataclass
class RelevanceTrace:
    instance_id: str
    predicted_class: str
    predicted_prob: float
    target_class: str
    target_logit: float
    layer_relevances: list[np.ndarray]  # per block, relevance on its units
    chain: list[tuple[int, int, str, float]]  # (layer, unit, rule text, relevance); [] if a block is dense
    conservation_total: float  # sum of layer-0 relevances
    trained: bool = True

    def to_text(self, top: int = 5) -> str:
        lines = [
            f"instance {self.instance_id}: predicted {self.predicted_class} "
            f"({self.predicted_prob:.2f}), explaining {self.target_class} "
            f"(logit {self.target_logit:.4f})"
        ]
        if not self.trained:
            lines.append("warning: network does not appear to be trained")
        if self.chain:
            chain_txt = "  ~>  ".join(f"[{rule}]" for _, _, rule, _ in self.chain)
            lines.append(f"{chain_txt}  ~>  class = {self.target_class} ({self.predicted_prob:.2f})")
        for ell, rel in enumerate(self.layer_relevances):
            order = np.argsort(-np.abs(rel))[:top]
            lines.append(f"layer {ell} top units:")
            for u in order:
                lines.append(f"  u{int(u)}  relevance {rel[u]:+.4f}")
        lines.append(f"sum of layer-0 relevances: {self.conservation_total:.6f}")
        return "\n".join(lines) + "\n"


def unit_activity(net: BirNetwork, rows: np.ndarray) -> np.ndarray:
    """Boolean (rows x first-layer units): post-ReLU output positive, eval
    mode. Only block 0 is evaluated."""
    if not net.blocks:
        raise ValueError("network has no hidden blocks")
    return net.blocks[0].linear.folded(net.check_input(rows), net.blocks[0].fold()) > 0.0


def extract_rules(
    net: BirNetwork,
    rows: np.ndarray,
    labels: np.ndarray,
    min_support: int,
) -> list[RuleRecord]:
    """Per (first-layer unit, class) rule statistics on held-out data,
    sorted by (class, precision desc, lift desc); one label in 0..k-1 per row."""
    if rows.shape[0] == 0:
        raise ValueError("held-out set is empty")
    labels = check_labels(labels, rows.shape[0], net.n_classes)
    active = unit_activity(net, rows)
    if not isinstance(net.blocks[0].linear, PairLinear):
        raise ValueError("block 0 is a dense layer, whose units have no rules")
    bindings, names = net.blocks[0].linear.bindings, net.feature_names
    onehot = labels[:, None] == np.arange(net.n_classes)
    hits = active.T.astype(np.int64) @ onehot  # (units, classes)
    support, n_c = active.sum(axis=0), onehot.sum(axis=0)
    prevalence = onehot.mean(axis=0)
    unit, cls = np.nonzero((support >= max(min_support, 1))[:, None] & (n_c > 0))
    precision = hits[unit, cls] / support[unit]
    recall = hits[unit, cls] / n_c[cls]
    lift = precision / prevalence[cls]
    order = np.lexsort((unit, -lift, -precision, cls))
    columns = (unit, cls, precision, recall, lift, support[unit])
    return [
        RuleRecord(unit=u, source=int(bindings.source[u]), target=int(bindings.target[u]),
                   btype=TYPES[bindings.btype[u]], rule=rule_text(bindings, u, names),
                   class_index=c, class_name=net.class_names[c],
                   precision=p, recall=r, lift=li, support=s)
        for u, c, p, r, li, s in zip(*(col[order].tolist() for col in columns))
    ]


def rules_to_csv(records: list[RuleRecord]) -> str:
    lines = ["class,rule,precision,recall,lift,support,unit"]
    for r in records:
        lines.append(
            f"{r.class_name},{r.rule},{r.precision!r},{r.recall!r},{r.lift!r},{r.support},{r.unit}"
        )
    return "\n".join(lines) + "\n"


def _stabilize(z: np.ndarray) -> np.ndarray:
    return z + LRP_EPSILON * np.where(z >= 0.0, 1.0, -1.0)


def _propagate_dense(R_out, a_in, W, scale):
    # Matrix-free: input i receives a_i * sum_j W[j, i] * scale_j * R_j / stab(z_j).
    share = scale * R_out / _stabilize((W @ a_in) * scale)
    return a_in * (share @ W)


def _propagate_pair(R_out, a_in, lin: PairLinear, fold: Fold):
    c = a_in[fold.idx] * fold.w  # each unit's source, then target contributions
    share = R_out / _stabilize(c[: lin.out_dim] + c[lin.out_dim :])
    return np.bincount(fold.idx, c * np.concatenate([share, share]), minlength=lin.in_dim)


def lrp_explain(
    net: BirNetwork,
    instance: np.ndarray,
    target_class: int | None = None,
    instance_id: str = "?",
) -> RelevanceTrace:
    """Epsilon-rule (`LRP_EPSILON`) decomposition of one logit into per-unit scores.

    Relevance flows only through active (post-ReLU positive) units; the
    argmax chain descends from the top block to layer 0 through each chosen
    unit's two bound inputs, and is empty if a block is dense (whose units have no
    rules). target_class is an int in 0..k-1, not a bool; None explains the
    predicted class (ties to the lowest index).
    """
    if not (target_class is None or type(target_class) is not bool
            and isinstance(target_class, (int, np.integer)) and 0 <= target_class < net.n_classes):
        raise ValueError(f"target class {target_class!r} is not a class index in 0..{net.n_classes - 1}")
    x = np.asarray(instance, dtype=np.float64).reshape(1, -1)
    logits, cache = net.forward(x, mode="eval")
    probs = softmax(logits)[0]
    pred = int(np.argmax(logits[0]))
    target_class = pred if target_class is None else target_class
    target_logit = float(logits[0, target_class])
    R = np.zeros(net.n_classes)
    R[target_class] = target_logit
    layer_rel: list[np.ndarray] = [None] * len(net.blocks)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is the error below
        # Head, top down. Hidden head activations are cached inputs of later layers.
        for i in reversed(range(len(net.head.layers))):
            R = _propagate_dense(R, cache["head_in"][i][0], net.head.layers[i].W, 1.0)
        for ell in reversed(range(len(net.blocks))):
            blk, a_in = net.blocks[ell], cache["block_in"][ell][0]
            layer_rel[ell] = R
            fold = cache["fold"][ell]
            if isinstance(blk.linear, PairLinear):
                R = _propagate_pair(R, a_in, blk.linear, fold)
            else:
                R = _propagate_dense(R, a_in, blk.linear.W, fold.scale)
        relevances = layer_rel if net.blocks else [R]
        total = float(relevances[0].sum())
    if not (np.isfinite(total) and all(np.isfinite(r).all() for r in relevances)):
        raise ValueError("the relevances are not finite: an input is too large for the network's weights")

    # Argmax chain: from the top block down through the chosen unit's bindings.
    chain: list[tuple[int, int, str, float]] = []
    ruled = all(isinstance(blk.linear, PairLinear) for blk in net.blocks)
    for ell in reversed(range(len(net.blocks) if ruled else 0)):
        if chain:
            above = net.blocks[ell + 1].linear.bindings
            cand = (int(above.source[u]), int(above.target[u]))
            u = cand[int(np.argmax([layer_rel[ell][c] for c in cand]))]
        else:
            u = int(np.argmax(layer_rel[ell]))
        b = net.blocks[ell].linear.bindings
        names = {int(j): _input_name(net, ell, int(j)) for j in (b.source[u], b.target[u])}
        rule = rule_text(b, u, names)
        chain.append((ell, u, rule, float(layer_rel[ell][u])))
    chain.reverse()
    return RelevanceTrace(
        instance_id=instance_id,
        predicted_class=net.class_names[pred],
        predicted_prob=float(probs[pred]),
        target_class=net.class_names[target_class],
        target_logit=target_logit,
        layer_relevances=relevances,
        chain=chain,
        conservation_total=total,
        trained=bool(net.meta.get("trained", True)),
    )
