"""Symbolic rule extraction and per-instance relevance traces.

A first-layer unit is "active" on a sample when its post-ReLU output is
positive. Rules are scored on held-out data: precision = P(class | active),
recall = P(active | class), lift = precision / class prevalence. Per-instance
explanations propagate the target logit backward with an epsilon-stabilized
relevance rule; BatchNorm is folded into the adjacent linear map first, and
bias terms absorb no relevance, so the propagated total is conserved up to
the epsilon leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from birdnet.mining import TYPES, EdgeTable
from birdnet.network import BirNetwork, DenseLinear, PairLinear
from birdnet.trainer import softmax

__all__ = [
    "RuleRecord",
    "RelevanceTrace",
    "unit_activity",
    "extract_rules",
    "rules_to_csv",
    "lrp_explain",
]

LRP_EPSILON = 1e-6
DEFAULT_MIN_SUPPORT = 10

# By type code T0..T5.
_RULE_TEMPLATES = (
    "{a} -> {b}",
    "!{a} -> !{b}",
    "{a} -> !{b}",
    "!{a} -> {b}",
    "{a} == {b}",
    "{a} == !{b}",
)


def rule_text(bindings: EdgeTable, k: int, input_names: list[str]) -> str:
    """Row k of a binding table as a rule over the named inputs."""
    return _RULE_TEMPLATES[bindings.btype[k]].format(
        a=input_names[bindings.source[k]], b=input_names[bindings.target[k]]
    )


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
    chain: list[tuple[int, int, str, float]]  # (layer, unit, rule text, relevance)
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
        chain_txt = "  ~>  ".join(f"[{rule}]" for _, _, rule, _ in self.chain)
        lines.append(
            f"{chain_txt}  ~>  class = {self.target_class} ({self.predicted_prob:.2f})"
        )
        for ell, rel in enumerate(self.layer_relevances):
            order = np.argsort(-np.abs(rel))[:top]
            lines.append(f"layer {ell} top units:")
            for u in order:
                lines.append(f"  u{int(u)}  relevance {rel[u]:+.4f}")
        lines.append(f"sum of layer-0 relevances: {self.conservation_total:.6f}")
        return "\n".join(lines) + "\n"


def unit_activity(net: BirNetwork, rows: np.ndarray) -> np.ndarray:
    """Boolean (rows x first-layer units): post-ReLU output positive, eval mode."""
    if not net.blocks:
        raise ValueError("network has no hidden blocks")
    _, cache = net.forward(np.asarray(rows, dtype=np.float64), mode="eval")
    return cache["post_bn"][0] > 0.0


def extract_rules(
    net: BirNetwork,
    rows: np.ndarray,
    labels: np.ndarray,
    min_support: int = DEFAULT_MIN_SUPPORT,
) -> list[RuleRecord]:
    """Per (first-layer unit, class) rule statistics on held-out data,
    sorted by (class, precision desc, lift desc)."""
    labels = np.asarray(labels)
    if rows.shape[0] == 0:
        raise ValueError("held-out set is empty")
    active = unit_activity(net, rows)
    n = rows.shape[0]
    k = net.n_classes
    bindings, names = net.blocks[0].bindings, net.blocks[0].input_names
    prevalence = np.array([(labels == c).mean() for c in range(k)])
    records: list[RuleRecord] = []
    support = active.sum(axis=0)
    for u in range(active.shape[1]):
        s = int(support[u])
        if s < min_support:
            continue
        act_labels = labels[active[:, u]]
        rule = rule_text(bindings, u, names)
        for c in range(k):
            if prevalence[c] == 0.0:
                continue
            n_c = int((labels == c).sum())
            hits = int((act_labels == c).sum())
            precision = hits / s
            recall = hits / n_c
            lift = float(precision / prevalence[c])
            records.append(
                RuleRecord(
                    unit=u,
                    source=int(bindings.source[u]),
                    target=int(bindings.target[u]),
                    btype=TYPES[bindings.btype[u]],
                    rule=rule,
                    class_index=c,
                    class_name=net.class_names[c],
                    precision=precision,
                    recall=recall,
                    lift=lift,
                    support=s,
                )
            )
    records.sort(key=lambda r: (r.class_index, -r.precision, -r.lift, r.unit))
    return records


def rules_to_csv(records: list[RuleRecord]) -> str:
    lines = ["class,rule,precision,recall,lift,support,unit"]
    for r in records:
        lines.append(
            f"{r.class_name},{r.rule},{r.precision!r},{r.recall!r},{r.lift!r},{r.support},{r.unit}"
        )
    return "\n".join(lines) + "\n"


def _stabilize(z: np.ndarray, epsilon: float) -> np.ndarray:
    s = np.where(z >= 0.0, 1.0, -1.0)
    return z + epsilon * s


def _propagate_dense(R_out, a_in, W, scale, epsilon):
    # contribution of input i to unit j: a_i * W[j, i] * scale_j
    contrib = a_in[None, :] * W * scale[:, None]  # (out, in)
    denom = _stabilize(contrib.sum(axis=1), epsilon)
    return contrib.T @ (R_out / denom)


def _propagate_pair(R_out, a_in, lin: PairLinear, scale, epsilon):
    c_src = a_in[lin.src] * lin.w_src * scale
    c_tgt = a_in[lin.tgt] * lin.w_tgt * scale
    denom = _stabilize(c_src + c_tgt, epsilon)
    share = R_out / denom
    R_in = np.zeros(lin.in_dim)
    np.add.at(R_in, lin.src, c_src * share)
    np.add.at(R_in, lin.tgt, c_tgt * share)
    return R_in


def lrp_explain(
    net: BirNetwork,
    instance: np.ndarray,
    target_class: int,
    instance_id: str = "?",
    epsilon: float = LRP_EPSILON,
) -> RelevanceTrace:
    """Backward relevance decomposition of one logit into per-unit scores.

    Relevance flows only through active (post-ReLU positive) units; the
    argmax chain descends from the top block to layer 0 through each chosen
    unit's two bound inputs.
    """
    x = np.asarray(instance, dtype=np.float64).reshape(1, -1)
    logits, cache = net.forward(x, mode="eval")
    probs = softmax(logits)[0]
    pred = int(np.argmax(logits[0]))
    target_logit = float(logits[0, target_class])
    trained = bool(net.meta.get("trained", True))

    R = np.zeros(net.n_classes)
    R[target_class] = target_logit
    # Head, top down. Hidden head activations are cached inputs of later layers.
    for i in reversed(range(len(net.head.layers))):
        lay = net.head.layers[i]
        a_in = cache["head_in"][i][0]
        R = _propagate_dense(R, a_in, lay.W, np.ones(lay.out_dim), epsilon)
    layer_rel: list[np.ndarray] = [None] * len(net.blocks)
    for ell in reversed(range(len(net.blocks))):
        blk = net.blocks[ell]
        layer_rel[ell] = R.copy()
        scale = blk.bn.gamma / np.sqrt(blk.bn.running_var + blk.bn.eps)
        a_in = cache["block_in"][ell][0]
        if isinstance(blk.linear, PairLinear):
            R = _propagate_pair(R, a_in, blk.linear, scale, epsilon)
        else:
            R = _propagate_dense(R, a_in, blk.linear.W, scale, epsilon)

    # Argmax chain: from the top block down through the chosen unit's bindings.
    chain: list[tuple[int, int, str, float]] = []
    for ell in reversed(range(len(net.blocks))):
        blk = net.blocks[ell]
        if chain:
            above = net.blocks[ell + 1].bindings
            cand = (int(above.source[u]), int(above.target[u]))
            u = cand[int(np.argmax([layer_rel[ell][c] for c in cand]))]
        else:
            u = int(np.argmax(layer_rel[ell]))
        rule = rule_text(blk.bindings, u, blk.input_names)
        chain.append((ell, u, rule, float(layer_rel[ell][u])))
    chain.reverse()
    conservation = float(layer_rel[0].sum()) if net.blocks else float(R.sum())
    return RelevanceTrace(
        instance_id=instance_id,
        predicted_class=net.class_names[pred],
        predicted_prob=float(probs[pred]),
        target_class=net.class_names[target_class],
        target_logit=target_logit,
        layer_relevances=layer_rel if net.blocks else [R],
        chain=chain,
        conservation_total=conservation,
        trained=trained,
    )
