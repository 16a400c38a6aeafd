#!/usr/bin/env python3
"""What the recurrent decoder buys: the dependency experiment, one seed.

Two models train on the same benchmark from demo 03: the full variant
(recurrent decoder) and the conv_only ablation (same encoder, convolutional
decoder, no recurrence). The ambiguous final segments are featureless coin
flips for anything that cannot carry ordered context, so the ablation sits
near chance there while the recurrent decoder resolves them.
"""

import numpy as np

from actionseg import ModelConfig, SynthConfig, build, frame_local_ceiling, predict, synth_generate
from actionseg.train import train

cfg = SynthConfig(
    num_classes=5,
    actions_per_video=6,
    sub_actions=(2, 2),
    frames_per_sub=(6, 8),
    feature_dim=8,
    noise=0.05,
    ambiguous_pairs=[(2, 3)],
    dependency_rule={0: 2, 1: 3},
    videos_per_split={"train": 24, "test": 12},
    seed=1001,
)
dataset = synth_generate(cfg)
train_set, test_set = dataset.split("train"), dataset.split("test")
amb = sorted(cfg.ambiguous_classes())
ceiling = frame_local_ceiling(test_set, amb)
print(f"frame-local ceiling on this test split: {ceiling:.2f}")
print()


def scores(model):
    amb_hit = amb_tot = hit = tot = 0
    for s in test_set:
        pred = predict(model, s.features)
        mask = np.isin(s.labels, amb)
        amb_hit += int(np.count_nonzero((pred == s.labels) & mask))
        amb_tot += int(mask.sum())
        hit += int(np.count_nonzero(pred == s.labels))
        tot += len(s)
    return 100.0 * amb_hit / amb_tot, 100.0 * hit / tot


results = {}
for variant in ("full", "conv_only"):
    model = build(ModelConfig(input_dim=8, num_classes=5, variant=variant, k=2, conv_len=3,
                              hidden=16, dropout_conv=0.0, dropout_lstm=0.0, seed=1))
    report = train(model, train_set, test_set, epochs=120, seed=1, lr=2e-3,
                   early_stop_train_acc=99.9)
    amb_acc, overall = scores(model)
    results[variant] = (amb_acc, overall)
    print(f"{variant:10s} trained {len(report.epochs):>3} epochs | "
          f"ambiguous-segment acc {amb_acc:6.2f} | overall acc {overall:6.2f}")

gap = results["full"][0] - results["conv_only"][0]
print()
print(f"recurrent decoder beats the conv ablation by {gap:.2f} points on ambiguous segments")
print(f"and its overall accuracy {results['full'][1]:.2f} exceeds the frame-local "
      f"ceiling {ceiling:.2f}: that margin is long-range context at work.")
