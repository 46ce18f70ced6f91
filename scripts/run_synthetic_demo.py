#!/usr/bin/env python3
"""End-to-end demo on generated data: plant a Boolean implication between two
features, mine it, build and train the sparse network, report CV metrics,
extracted rules, and a per-instance relevance trace. Runs in a few seconds
with no external data."""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from birdnet.dataio import LabeledDataset
from birdnet.evaluate import PipelineConfig, apply_preprocessing, cross_validate, holdout_rules_run
from birdnet.explain import lrp_explain
from birdnet.mining import MiningConfig
from birdnet.trainer import TrainConfig


def make_dataset(rng, n=400, n_noise=6, flip=0.02):
    a = rng.random(n) < 0.5
    b = a & ~((rng.random(n) < flip) & a)
    b |= ~a & (rng.random(n) < 0.3)
    bits = np.column_stack([a, b] + [rng.random(n) < 0.5 for _ in range(n_noise)])
    X = bits * 2.0 + rng.normal(0, 0.1, bits.shape)
    y = a.astype(int)
    return LabeledDataset(
        values=X,
        feature_names=[f"g{j}" for j in range(X.shape[1])],
        sample_ids=[f"s{i}" for i in range(n)],
        labels=y,
        class_names=["neg", "pos"],
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()

    ds = make_dataset(np.random.default_rng(args.seed))
    cfg = PipelineConfig(
        mining=MiningConfig(mu=1),
        training=TrainConfig(learning_rate=1e-2, epochs_max=60, batch_size=32),
        folds=3,
        depth=1,
        head_hidden=8,
        seed=args.seed,
    )

    res = cross_validate(ds, cfg, include_matched=True)
    s = res.summary()
    print(f"AUROC {s['auroc_mean']:.3f}  accuracy {s['acc_mean']:.3f}  "
          f"compression x{s['compression_ratio']:.1f} vs matched dense net")

    net, rules, _ = holdout_rules_run(ds, cfg, test_fraction=0.2)
    print("\ntop rules on the holdout:")
    for r in rules[:5]:
        print(f"  [{r.class_name}] {r.rule}  precision={r.precision:.2f} lift={r.lift:.2f} support={r.support}")

    i = int(np.argmax(ds.labels == 1))  # a positive instance has active units
    x = apply_preprocessing(net, ds, [i])[0]
    logits, _ = net.forward(x.reshape(1, -1), mode="eval")
    trace = lrp_explain(net, x, int(np.argmax(logits[0])), instance_id=ds.sample_ids[i])
    print("\n" + trace.to_text())


if __name__ == "__main__":
    main()
