#!/usr/bin/env python3
"""End-to-end: generate data, train a model, evaluate all three metrics.

The training loop applies one optimizer update per sequence (lengths vary,
so nothing is ever padded into batches) and scores the validation split each
epoch with frame accuracy, segmental edit score, and overlap F1.
"""

import numpy as np

from actionseg import ModelConfig, SynthConfig, build, evaluate, predict, synth_generate
from actionseg.train import train

cfg = SynthConfig(
    num_classes=4,
    actions_per_video=5,
    sub_actions=(2, 2),
    frames_per_sub=(5, 7),
    feature_dim=6,
    noise=0.05,
    videos_per_split={"train": 8, "test": 4},
    seed=12,
)
dataset = synth_generate(cfg)
train_set = dataset.split("train")
test_set = dataset.split("test")
print(f"{len(train_set)} training sequences, lengths {[len(s) for s in train_set]}")

model = build(ModelConfig(
    input_dim=cfg.feature_dim,
    num_classes=cfg.num_classes,
    variant="full",
    k=2,
    conv_len=3,
    hidden=12,
    dropout_conv=0.1,
    dropout_lstm=0.1,
    seed=3,
))
print(f"model: full variant, {model.parameter_count()} parameters")
print()

report = train(model, train_set, test_set, epochs=25, seed=3, lr=2e-3)
print("training curve (every 5th epoch):")
for e in report.epochs[::5]:
    print(f"  epoch {e.epoch:>3}: loss {e.loss:.4f}  train acc {e.train_acc:6.2f}  "
          f"val acc {e.val_acc:6.2f}  val edit {e.val_edit:6.2f}")
print()

preds = [predict(model, s.features) for s in test_set]
final = evaluate(preds, [s.labels for s in test_set], ids=[s.id for s in test_set])
print("final test metrics:")
print(final.to_text())

agree = np.mean([np.mean(p == s.labels) for p, s in zip(preds, test_set)])
print(f"(sanity: mean per-sequence agreement {100 * agree:.2f}%)")
