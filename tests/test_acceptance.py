"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. The heavy criteria (gradient fidelity, overfit,
dependency experiment) take a few minutes combined on a small CPU.
"""

import itertools
import math
import os
import time
from functools import lru_cache

import numpy as np
import pytest

from actionseg.cli import main
from actionseg.data import SynthConfig, frame_local_ceiling, save_dataset, synth_generate
from actionseg.errors import ContractError, LoadError, ShapeError
from actionseg.layers import (Conv1DParams, LSTMParams, bilstm, max_pool_time, norm_relu,
                              softmax_time, upsample_conv1d_same)
from actionseg.autodiff import Variable
from actionseg.metrics import Segment, edit_score, levenshtein, overlap_f1
from actionseg.model import VARIANTS, ModelConfig, build
from actionseg.train import cross_entropy_loss, finite_difference_report, predict, train
from worker_helpers import one_thread_pool


class _report:
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number} {self.name}: {status}")
        return False


# 1. gradient fidelity ------------------------------------------------------

TOY = dict(input_dim=3, num_classes=2, k=2, conv_len=3, hidden=4,
           dropout_conv=0.0, dropout_lstm=0.0, seed=101)


def _gradcheck_variant(variant):
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 3))
    labels = rng.integers(0, 2, size=8)
    model = build(ModelConfig(variant=variant, **TOY))
    rows = finite_difference_report(model, x, labels, eps=1e-5)
    return variant, rows, time.perf_counter() - started


def test_criterion_1_gradient_fidelity(monkeypatch):
    with _report(1, "gradient fidelity, all variants, every parameter block <= 1e-4"):
        started = time.perf_counter()
        workers = max(1, min(len(VARIANTS), os.cpu_count() or 1))
        with one_thread_pool(workers, monkeypatch) as pool:
            results = list(pool.map(_gradcheck_variant, VARIANTS))
        elapsed = time.perf_counter() - started
        for variant, rows, seconds in results:
            worst = float(np.max([err for _, err in rows]))  # NaN if any row is NaN
            print(f"  {variant:10s} {len(rows)} blocks, worst rel err {worst:.3e}, {seconds:.1f}s")
            assert all(err <= 1e-4 for _, err in rows), (variant, rows)
        print(f"  elapsed {elapsed:.1f}s")
        assert elapsed < 120.0


# 2. equation-level unit suite ----------------------------------------------


def test_criterion_2_equation_level_suite():
    with _report(2, "equation-level unit suite"):
        # hand-evaluated recurrent step: 0.5 on every weight, zero biases,
        # unit input, zero initial state; one frame, so both directions take
        # the same single step
        fields = {}
        for g in ("i", "f", "o", "c"):
            fields[f"W_x{g}"] = Variable([[0.5]])
            fields[f"W_h{g}"] = Variable([[0.5]])
            fields[f"b_{g}"] = Variable([0.0])
        unit = LSTMParams(**fields)
        h1 = bilstm(Variable([[1.0]]), unit, unit).value.data
        sig = 1.0 / (1.0 + math.exp(-0.5))
        oracle = sig * math.tanh(sig * math.tanh(0.5))
        assert h1.shape == (1, 2) and np.max(np.abs(h1 - oracle)) <= 1e-6

        # normalized rectifier bounds and maximum
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 6))) * 5
            out = norm_relu(Variable(x)).value.data
            assert np.all(out >= 0.0) and np.all(out < 1.0)
            m = max(float(x.max()), 0.0)
            expected_max = m / (m + 1e-5) if m > 0 else 0.0
            assert abs(out.max() - expected_max) <= 1e-12

        # per-frame softmax rows sum to one
        z = rng.normal(size=(9, 7)) * 30
        rows = softmax_time(Variable(z)).value.data.sum(axis=1)
        assert np.max(np.abs(rows - 1.0)) <= 1e-12

        # pooling / upsampling round trip is exact: with width-1 identity
        # kernels and zero bias the upsampling convolution only repeats rows
        for _ in range(20):
            x = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 5)))
            c = x.shape[1]
            identity = Conv1DParams(Variable(np.eye(c)[:, :, None]), Variable(np.zeros(c)))
            back = max_pool_time(upsample_conv1d_same(Variable(x), identity)).value.data
            assert np.array_equal(back, x)


# 3. metric oracle suite -----------------------------------------------------


@lru_cache(maxsize=None)
def _lev_recursive(a, b):
    if not a:
        return len(b)
    if not b:
        return len(a)
    return min(_lev_recursive(a[1:], b[1:]) + (a[0] != b[0]),
               _lev_recursive(a[1:], b) + 1,
               _lev_recursive(a, b[1:]) + 1)


def test_criterion_3_metric_oracles():
    with _report(3, "metric oracle suite"):
        alphabet = (0, 1, 2)
        strings = [tuple(s) for n in range(7) for s in itertools.product(alphabet, repeat=n)]
        assert len(strings) == 1093
        for a in strings:
            for b in strings:
                assert levenshtein(a, b) == _lev_recursive(a, b)

        # hand-computed segmental cases
        pred = [Segment(0, 0, 2), Segment(2, 2, 4)]
        gt = [Segment(0, 0, 1), Segment(1, 1, 2), Segment(2, 2, 3)]
        assert abs(edit_score(pred, gt) - 200.0 / 3.0) < 1e-9
        assert overlap_f1([Segment(0, 5, 15)], [Segment(0, 0, 10)], 25) == 100.0
        assert overlap_f1([Segment(0, 5, 15)], [Segment(0, 0, 10)], 50) == 0.0
        assert overlap_f1([Segment(0, 3, 12)], [Segment(0, 0, 9)], 50) == 0.0

        # monotone non-increasing in the threshold on random segmentations
        rng = np.random.default_rng(5)
        for _ in range(100):
            def random_segments():
                cuts = np.sort(rng.choice(np.arange(1, 50), size=rng.integers(1, 7), replace=False))
                edges = [0, *cuts.tolist(), 50]
                labels = rng.integers(0, 4, size=len(edges) - 1)
                return [Segment(int(l), a, b) for l, a, b in zip(labels, edges[:-1], edges[1:])]
            p, g = random_segments(), random_segments()
            scores = [overlap_f1(p, g, k) for k in (10, 25, 50, 75, 90)]
            assert all(x >= y for x, y in zip(scores, scores[1:]))


# 4. overfit sanity ----------------------------------------------------------


def test_criterion_4_overfit_sanity():
    with _report(4, "overfit 5 sequences (T~200, d=16, c=6) to >= 99% within 300 epochs"):
        cfg = SynthConfig(num_classes=6, actions_per_video=8, sub_actions=(2, 3),
                          frames_per_sub=(8, 12), feature_dim=16, noise=0.05,
                          videos_per_split={"train": 5, "test": 1}, seed=41)
        ds = synth_generate(cfg)
        train_set = ds.split("train")
        lengths = [len(s) for s in train_set]
        assert all(150 <= t <= 260 for t in lengths), lengths

        model = build(ModelConfig(input_dim=16, num_classes=6, variant="full", k=2,
                                  conv_len=9, hidden=32, dropout_conv=0.0,
                                  dropout_lstm=0.0, seed=5))
        started = time.perf_counter()
        report = train(model, train_set, train_set, epochs=300, seed=5, lr=1e-3,
                       early_stop_train_acc=99.9)
        elapsed = time.perf_counter() - started
        hit = total = 0
        for s in train_set:
            pred = predict(model, s.features)
            hit += int(np.count_nonzero(pred == s.labels))
            total += len(s)
        acc = 100.0 * hit / total
        print(f"  train acc {acc:.2f} after {len(report.epochs)} epochs in {elapsed:.0f}s")
        assert len(report.epochs) <= 300
        assert acc >= 99.0
        assert elapsed < 600.0


# 5. dependency-disambiguation experiment ------------------------------------


def _dependency_dataset(seed):
    cfg = SynthConfig(num_classes=5, actions_per_video=6, sub_actions=(2, 2),
                      frames_per_sub=(6, 8), feature_dim=8, noise=0.05,
                      ambiguous_pairs=[(2, 3)], dependency_rule={0: 2, 1: 3},
                      videos_per_split={"train": 24, "test": 12}, seed=1000 + seed)
    return cfg, synth_generate(cfg)


def _ambiguous_accuracy(model, seqs, amb):
    hit = total = 0
    for s in seqs:
        pred = predict(model, s.features)
        mask = np.isin(s.labels, sorted(amb))
        hit += int(np.count_nonzero((pred == s.labels) & mask))
        total += int(mask.sum())
    return 100.0 * hit / total


def _overall_accuracy(model, seqs):
    hit = total = 0
    for s in seqs:
        pred = predict(model, s.features)
        hit += int(np.count_nonzero(pred == s.labels))
        total += len(s)
    return 100.0 * hit / total


def _dependency_seed(seed):
    cfg, ds = _dependency_dataset(seed)
    train_set, test_set = ds.split("train"), ds.split("test")
    amb = cfg.ambiguous_classes()
    ceiling = frame_local_ceiling(test_set, amb)
    scores = {}
    for variant in ("full", "conv_only"):
        model = build(ModelConfig(input_dim=8, num_classes=5, variant=variant, k=2,
                                  conv_len=3, hidden=16, dropout_conv=0.0,
                                  dropout_lstm=0.0, seed=seed))
        train(model, train_set, test_set, epochs=120, seed=seed, lr=2e-3,
              early_stop_train_acc=99.9)
        scores[variant] = (_ambiguous_accuracy(model, test_set, amb),
                          _overall_accuracy(model, test_set))
    gap = scores["full"][0] - scores["conv_only"][0]
    margin = scores["full"][1] - ceiling
    return seed, gap, margin, scores, ceiling


def test_criterion_5_dependency_disambiguation(monkeypatch):
    with _report(5, "recurrent decoder beats conv ablation on ambiguous segments"):
        workers = max(1, min(2, os.cpu_count() or 1))
        with one_thread_pool(workers, monkeypatch) as pool:
            results = list(pool.map(_dependency_seed, [1, 2, 3, 4, 5]))
        gaps = []
        margins = []
        for seed, gap, margin, scores, ceiling in results:
            gaps.append(gap)
            margins.append(margin)
            print(f"  seed {seed}: gap {gap:+.2f}, full overall {scores['full'][1]:.2f} "
                  f"vs ceiling {ceiling:.2f} (amb: full {scores['full'][0]:.2f}, "
                  f"conv {scores['conv_only'][0]:.2f})")
        median_gap = float(np.median(gaps))
        median_margin = float(np.median(margins))
        print(f"  median gap {median_gap:.2f} (need >= 10), "
              f"median margin over frame-local ceiling {median_margin:.2f} (need > 0)")
        assert median_gap >= 10.0
        assert median_margin > 0.0


def test_criterion_5_user_supplied_five_split_pipeline(tmp_path):
    with _report(5, "five-split user data runs end-to-end with all report columns"):
        cfg = SynthConfig(num_classes=4, actions_per_video=4, sub_actions=(2, 2),
                          frames_per_sub=(4, 6), feature_dim=5, noise=0.05,
                          videos_per_split={f"split{i}": 2 for i in range(1, 6)}, seed=77)
        manifest = save_dataset(synth_generate(cfg), tmp_path / "ds")
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(
            "[data]\n"
            f"manifest = {manifest}\n"
            "train_split = split1\n"
            "val_split = split2\n\n"
            "[model]\nvariant = full\nk = 2\nconv_len = 3\nhidden = 8\n"
            "dropout_conv = 0.1\ndropout_lstm = 0.1\n\n"
            "[train]\nepochs = 2\nlr = 0.002\nseed = 3\n"
        )
        assert main(["train", "--config", str(run_cfg), "--out", str(tmp_path / "run")]) == 0
        for split in ("split3", "split4", "split5"):
            out = tmp_path / f"eval_{split}"
            rc = main(["eval", "--config", str(run_cfg), "--checkpoint",
                       str(tmp_path / "run" / "checkpoint.bin"), "--split", split,
                       "--out", str(out)])
            assert rc == 0
            kv = dict(line.split("=", 1) for line in (out / "report.kv").read_text().splitlines())
            for key in ("acc", "edit", "f1@10", "f1@25", "f1@50"):
                assert key in kv


# 6. determinism --------------------------------------------------------------


def test_criterion_6_training_determinism(tmp_path):
    with _report(6, "repeated training runs are byte-identical"):
        synth_cfg = tmp_path / "synth.cfg"
        synth_cfg.write_text(
            "[synth]\nclasses = 4\nactions_per_video = 4\nsub_actions = 2,2\n"
            "frames_per_sub = 4,6\nfeature_dim = 5\nnoise = 0.05\n"
            "videos = train:3,test:2\nseed = 13\n"
        )
        assert main(["synth", "--config", str(synth_cfg), "--out", str(tmp_path / "ds")]) == 0
        run_cfg = tmp_path / "run.cfg"
        run_cfg.write_text(
            "[data]\n"
            f"manifest = {tmp_path / 'ds' / 'manifest.txt'}\n\n"
            "[model]\nvariant = full\nk = 2\nconv_len = 3\nhidden = 8\n"
            "dropout_conv = 0.2\ndropout_lstm = 0.2\n\n"
            "[train]\nepochs = 3\nlr = 0.002\nseed = 11\n"
        )
        assert main(["train", "--config", str(run_cfg), "--out", str(tmp_path / "r1")]) == 0
        assert main(["train", "--config", str(run_cfg), "--out", str(tmp_path / "r2")]) == 0
        kv1 = (tmp_path / "r1" / "report.kv").read_bytes()
        kv2 = (tmp_path / "r2" / "report.kv").read_bytes()
        ck1 = (tmp_path / "r1" / "checkpoint.bin").read_bytes()
        ck2 = (tmp_path / "r2" / "checkpoint.bin").read_bytes()
        assert kv1 == kv2
        assert ck1 == ck2


# 7. shape robustness ----------------------------------------------------------


def test_criterion_7_shape_robustness(tmp_path):
    with _report(7, "shape handling and specified errors"):
        rng = np.random.default_rng(91)
        for variant in VARIANTS:
            model = build(ModelConfig(variant=variant, **TOY))
            for t_len in (1, 2, 3, 99, 100):
                out = model.forward(rng.normal(size=(t_len, 3))).value
                assert out.shape == (t_len, 2)

        model = build(ModelConfig(variant="full", **TOY))
        with pytest.raises(ShapeError):
            model.forward(rng.normal(size=(10, 4)))

        probs = model.forward(rng.normal(size=(6, 3)))
        with pytest.raises(ContractError):
            cross_entropy_loss(probs, np.array([0, 1, 2, 0, 1, 0]))

        # out-of-range labels in dataset files surface as load errors
        cfg = SynthConfig(num_classes=3, actions_per_video=3, sub_actions=(1, 1),
                          frames_per_sub=(3, 3), feature_dim=2, noise=0.0,
                          videos_per_split={"train": 1}, seed=1)
        manifest = save_dataset(synth_generate(cfg), tmp_path)
        label_file = tmp_path / "train_0000.labels.txt"
        lines = label_file.read_text().splitlines()
        lines[0] = "5"
        label_file.write_text("\n".join(lines) + "\n")
        from actionseg.data import load_dataset
        with pytest.raises(LoadError):
            load_dataset(manifest)
