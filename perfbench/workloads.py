"""The three benchmark workloads, each a closed loop with one client.

A workload builds its inputs from the seed in ``setup``, then the runner
calls ``round`` in whole passes of ``pass_rounds`` rounds until the measuring
window is over and at least ``min_passes`` passes are done; a round is one
operation per model variant, in ``VARIANTS`` order, so every window covers
the variants equally. ``check`` verifies the outputs after the window and
returns the number of failed operations. ``peak_op`` is one operation run
again, untimed, under ``tracemalloc``.

Only the package's public API is called, and only through module attributes
looked up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

data = importlib.import_module("actionseg.data")
model_mod = importlib.import_module("actionseg.model")
train_mod = importlib.import_module("actionseg.train")
metrics_mod = importlib.import_module("actionseg.metrics")
autodiff = importlib.import_module("actionseg.autodiff")

VARIANTS = model_mod.VARIANTS
GRAD_TOL = 1e-4
ROWSUM_TOL = 1e-12

# Benchmark timings are CPU time of this process. The program is single-
# threaded (BLAS pinned to one thread), so on an idle machine CPU time equals
# wall time; on a shared VM it leaves out the time the host deschedules the
# VM, which otherwise swings wall-clock figures by 20-30 % between runs.
clock = time.process_time


@dataclass
class Op:
    """One workload operation: a train step, a checkpoint eval or a gradcheck report.

    ``parts`` splits the operation's time into keyed parts, each timed once
    or more per operation: key -> seconds of one unit of the part, and
    ``units`` gives the units of a part in one operation (1 if absent). An
    integer key is an input: a video, whose step or predict is a latency
    input, or a gradcheck block, whose unit is one probe and whose parts a
    report's latency sums; other keys are fixed costs of the operation
    (loading, scoring). ``ends`` holds the wall-clock end of each timing,
    which the gauge needs to scale it. ``gauge`` is the runner's host-speed
    gauge (``gauge.Gauge``), which it puts in the workload state under
    ``"gauge"``; None when the run takes no samples (traced runs).
    """

    variant: str
    gauge: object = None
    ok: bool = True
    seconds: float = 0.0
    parts: dict = field(default_factory=dict)
    ends: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    items: int = 0          # frames (train, eval) or finite-difference probes (gradcheck)
    extra: dict = field(default_factory=dict)

    def time(self, key, started: float) -> float:
        """Add one timing of part ``key``, begun at ``started``; returns the clock.

        The gauge samples after the timing, outside it and outside the next.
        """
        now = clock()
        self.parts.setdefault(key, []).append(now - started)
        self.ends.setdefault(key, []).append(time.perf_counter())
        if self.gauge is not None:
            self.gauge.poll()
            now = clock()
        return now


def make_videos(seed: int, lengths, actions: int, dim: int, classes: int, split: str):
    """One synthetic video near each target length, all sharing one prototype set.

    ``synth_generate`` draws lengths from a config, so each target gets its
    own config (two sub-actions per action, sub-action length within 5 %
    of target / (2 * actions)); the prototypes depend only on the seed, the
    class count, the sub-action count and the dimension, so they are shared.
    Video j is the (j+1)-th video of its stream, which keeps the action
    orders distinct between targets.
    """
    videos = []
    for j, target in enumerate(lengths):
        per_sub = target / (2 * actions)
        cfg = data.SynthConfig(
            num_classes=classes, actions_per_video=actions, sub_actions=(2, 2),
            frames_per_sub=(max(1, round(0.95 * per_sub)), max(1, round(1.05 * per_sub))),
            feature_dim=dim, videos_per_split={split: j + 1}, seed=seed)
        sample = data.synth_generate(cfg).split(split)[-1]
        videos.append(data.SequenceSample(f"{split}_{j:04d}", sample.features, sample.labels))
    return videos


def _grads(params):
    return [p._grad if p._grad is not None else np.zeros(p.value.shape) for p in params]


# ---------------------------------------------------------------------------


class TrainLong:
    """Seeded Adam steps, one sequence per update, as ``train()`` makes them.

    A round takes the next sequence of a seeded per-epoch shuffle and gives
    every variant one step on it; a pass is one epoch. The lengths are fixed
    targets, so every window steps through the same multiset of lengths.
    ``loss`` is the mean loss of the steps of epoch ``LOSS_EPOCH``, after
    the updates of the epochs before it; it is deterministic per seed, and
    every window runs at least that many epochs.
    """

    name = "train_long"
    item_unit = "frames/s"
    latency_name = "train_step_ms"
    latency_per_variant = False
    LOSS_EPOCH = 3
    min_passes = LOSS_EPOCH

    def __init__(self, lengths=(250, 1375, 2500), actions=10,
                 dim=64, classes=10, k=2, conv_len=30, hidden=64):
        self.lengths = lengths
        self.actions = actions
        self.model_kw = dict(input_dim=dim, num_classes=classes, k=k, conv_len=conv_len,
                             hidden=hidden)
        self.dim, self.classes = dim, classes

    def _rngs(self, seed):
        children = np.random.SeedSequence(seed).spawn(1 + len(VARIANTS))
        return [np.random.default_rng(c) for c in children]

    def setup(self, seed: int, work: Path):
        videos = make_videos(seed, self.lengths, self.actions, self.dim, self.classes, "train")
        rngs = self._rngs(seed)
        runs = []
        for variant, rng in zip(VARIANTS, rngs[1:]):
            model = model_mod.build(model_mod.ModelConfig(variant=variant, seed=seed, **self.model_kw))
            runs.append((variant, model, list(model.params.values()), train_mod.AdamState(), rng))
        return {"seed": seed, "videos": videos, "runs": runs, "shuffle": rngs[0],
                "order": [], "first": None}

    def pass_rounds(self, state) -> int:
        return len(state["videos"])

    @staticmethod
    def step(model, params, adam, rng, sample) -> float:
        tape = autodiff.Tape()
        with tape, np.errstate(all="ignore"):
            probs = model.forward(sample.features, training=True, rng=rng)
            loss = train_mod.cross_entropy_loss(probs, sample.labels)
        value = loss.value.item()
        if not math.isfinite(value):
            return value
        tape.backward(loss)
        with np.errstate(all="ignore"):
            train_mod.adam_step(params, _grads(params), adam)
        for p in params:
            p.zero_grad()
        return value

    def round(self, state) -> list[Op]:
        if not state["order"]:
            state["order"] = list(state["shuffle"].permutation(len(state["videos"])))
        j = int(state["order"].pop(0))
        sample = state["videos"][j]
        ops = []
        for variant, model, params, adam, rng in state["runs"]:
            op = Op(variant, state.get("gauge"), items=len(sample))
            started = clock()
            try:
                loss = self.step(model, params, adam, rng, sample)
                op.ok = math.isfinite(loss)
            except Exception as exc:  # a failing step is counted, the loop goes on
                loss, op.ok, op.extra["error"] = math.nan, False, repr(exc)
            op.time(j, started)
            op.seconds = op.parts[j][-1]
            op.extra["loss"] = loss
            if state["first"] is None:
                state["first"] = (j, loss)
            ops.append(op)
        return ops

    def check(self, state, ops: list[Op]) -> int:
        """Replay the first step from a fresh build; its loss must match bit for bit."""
        j, first_loss = state["first"]
        variant = VARIANTS[0]
        model = model_mod.build(model_mod.ModelConfig(variant=variant, seed=state["seed"], **self.model_kw))
        rng = self._rngs(state["seed"])[1]
        replay = self.step(model, list(model.params.values()), train_mod.AdamState(), rng,
                           state["videos"][j])
        if float(replay).hex() != float(first_loss).hex():
            ops[0].ok = False
            ops[0].extra["error"] = f"first-step loss {first_loss!r} != replay {replay!r}"
        return sum(not op.ok for op in ops)

    def quality(self, state, ops: list[Op]) -> float:
        steps = len(state["videos"]) * len(VARIANTS)
        epoch = ops[(self.LOSS_EPOCH - 1) * steps:self.LOSS_EPOCH * steps]
        return float(np.mean([op.extra["loss"] for op in epoch]))

    def peak_op(self, state):
        sample = max(state["videos"], key=len)
        model = model_mod.build(model_mod.ModelConfig(variant="full", seed=state["seed"], **self.model_kw))
        params = list(model.params.values())
        rng = np.random.default_rng(0)
        adam = train_mod.AdamState()
        return lambda: self.step(model, params, adam, rng, sample)


# ---------------------------------------------------------------------------


class EvalCorpus:
    """The ``actionseg eval`` path in-process, one checkpoint per variant.

    Setup writes a text-format corpus and one checkpoint per variant from a
    short seeded ``train()`` on shorter videos with the same prototypes.
    Checkpoints trained for a few seconds differ a lot in accuracy from seed
    to seed, which would leave the quality guard with no fixed meaning, so
    the corpus and the checkpoints come from the fixed ``DATA_SEED``; the
    workload seed does not change them.
    """

    name = "eval_corpus"
    item_unit = "frames/s"
    latency_name = "predict_ms"
    latency_per_variant = False
    min_passes = 1
    DATA_SEED = 20170522
    LR = 3e-3  # of the checkpoints' training

    def __init__(self, lengths=(1000, 1200, 1400, 1600, 1800, 2000), actions=12,
                 train_lengths=(300, 400), train_actions=3, epochs=2,
                 dim=64, classes=10, k=2, conv_len=30, hidden=64):
        self.lengths, self.actions = lengths, actions
        self.train_lengths, self.train_actions = train_lengths, train_actions
        self.epochs = epochs
        self.dim, self.classes = dim, classes
        self.model_kw = dict(input_dim=dim, num_classes=classes, k=k, conv_len=conv_len,
                             hidden=hidden, dropout_conv=0.0, dropout_lstm=0.0)

    def setup(self, seed: int, work: Path):
        seed = self.DATA_SEED
        shutil.rmtree(work, ignore_errors=True)
        corpus = make_videos(seed, self.lengths, self.actions, self.dim, self.classes, "test")
        manifest = data.DatasetManifest([f"c{i}" for i in range(self.classes)], self.dim,
                                        {"test": [s.id for s in corpus]})
        manifest_path = data.save_dataset(data.Dataset(manifest, {s.id: s for s in corpus}),
                                          work / "corpus")
        train_set = make_videos(seed, self.train_lengths, self.train_actions, self.dim,
                                self.classes, "train")
        checkpoints = []
        for variant in VARIANTS:
            model = model_mod.build(model_mod.ModelConfig(variant=variant, seed=seed, **self.model_kw))
            path = work / f"{variant}.ckpt"
            train_mod.train(model, train_set, train_set[:1], epochs=self.epochs, seed=seed,
                            lr=self.LR, checkpoint_path=path)
            checkpoints.append((variant, path))
        parsed = sum(p.stat().st_size for p in manifest_path.parent.iterdir())
        return {"manifest": manifest_path, "checkpoints": checkpoints, "first": {},
                "parsed_mb": parsed / 1e6}

    def pass_rounds(self, state) -> int:
        return 1

    def eval_one(self, manifest: Path, checkpoint: Path, op: Op | None = None):
        tick = op.time if op is not None else (lambda key, started: started)
        started = clock()
        model = model_mod.load_checkpoint(checkpoint)
        dataset = data.load_dataset(manifest)
        seqs = dataset.split("test")
        started = tick("load", started)
        preds = []
        for j, s in enumerate(seqs):
            preds.append(train_mod.predict(model, s.features))
            started = tick(j, started)
        gts = [s.labels for s in seqs]
        report = metrics_mod.evaluate(preds, gts, background=dataset.manifest.background,
                                      ids=[s.id for s in seqs])
        tick("score", started)
        return seqs, preds, report

    def round(self, state) -> list[Op]:
        ops = []
        for variant, path in state["checkpoints"]:
            op = Op(variant, state.get("gauge"))
            started = clock()
            try:
                seqs, preds, _ = self.eval_one(state["manifest"], path, op)
            except Exception as exc:  # a failing eval is counted, the loop goes on
                op.ok, op.extra["error"] = False, repr(exc)
                op.seconds = clock() - started
                ops.append(op)
                continue
            op.seconds = clock() - started
            op.items = sum(len(s) for s in seqs)
            op.extra["digest"] = hashlib.sha256(b"".join(p.astype("<i8").tobytes() for p in preds)).hexdigest()
            op.extra["mb_parsed"] = state["parsed_mb"]
            op.extra["segments"] = sum(_runs(p) + _runs(s.labels) for p, s in zip(preds, seqs))
            state["first"].setdefault(variant, preds)
            ops.append(op)
        return ops

    def check(self, state, ops: list[Op]) -> int:
        """Probabilities finite with unit row sums; predict equals argmax of forward."""
        dataset = data.load_dataset(state["manifest"])
        seqs = dataset.split("test")
        nll, frames = 0.0, 0
        for variant, path in state["checkpoints"]:
            mine = [op for op in ops if op.variant == variant]
            problem = None
            model = model_mod.load_checkpoint(path)
            first = state["first"].get(variant)
            for j, s in enumerate(seqs):
                probs = model.forward(s.features, training=False).value.data
                nll -= float(np.log(probs[np.arange(len(s)), s.labels] + train_mod.LOG_GUARD).sum())
                frames += len(s)
                if not np.all(np.isfinite(probs)):
                    problem = f"{s.id}: non-finite probabilities"
                elif np.max(np.abs(probs.sum(axis=1) - 1.0)) > ROWSUM_TOL:
                    problem = f"{s.id}: probability rows do not sum to 1 within {ROWSUM_TOL}"
                elif first is None or not np.array_equal(first[j], probs.argmax(axis=1)):
                    problem = f"{s.id}: predict differs from argmax of forward"
                if problem:
                    break
            digests = {op.extra.get("digest") for op in mine}
            if problem is None and len(digests) != 1:
                problem = "predictions differ between repeated evals"
            if problem:
                for op in mine:
                    op.ok = False
                    op.extra.setdefault("error", f"{variant}: {problem}")
        state["nll"] = nll / max(frames, 1)
        return sum(not op.ok for op in ops)

    def quality(self, state, ops: list[Op]) -> float:
        return state["nll"]  # computed by ``check`` from the same forward passes

    def peak_op(self, state):
        variant, path = state["checkpoints"][0]
        return lambda: self.eval_one(state["manifest"], path)


def _runs(labels) -> int:
    labels = np.asarray(labels)
    return int(1 + np.count_nonzero(labels[1:] != labels[:-1])) if labels.size else 0


# ---------------------------------------------------------------------------


class GradCheck:
    """``finite_difference_report`` at the acceptance criterion-1 configuration.

    A whole report takes 30-60 s per variant here, too long for one window,
    so each report checks only some parameter blocks: every block of at most
    ``cap`` coordinates (every bias, every recurrent matrix, the narrow input
    matrices and the read-out), plus the model's first conv kernel block and
    its first LSTM input-matrix block, so that the kernel gradient of
    ``conv1d_same`` and the input-matrix gradient of ``lstm_forward`` are
    checked in every variant that has them. Those blocks sit in every stage,
    so probes restart the forward pass at every stage boundary, as in the
    full gate. The skipping is done by a stand-in for the
    ``finite_diff_check`` that the report calls; each block that is checked
    is checked whole. Inputs and seeds are those of
    ``tests/test_acceptance.py`` and do not depend on the workload seed.
    """

    name = "gradcheck"
    item_unit = "probes/s"
    # One variant's report, rebuilt from its probes. Per-probe latencies
    # cluster by block (probes of early stages restart a longer forward), and
    # a percentile that falls between two clusters jumps from run to run.
    latency_name = "report_ms"
    latency_per_variant = True
    min_passes = 1
    TOY = dict(input_dim=3, num_classes=2, k=2, conv_len=3, hidden=4,
               dropout_conv=0.0, dropout_lstm=0.0, seed=101)
    ALWAYS = (".conv.kernels", ".W_x")  # the first block whose name holds each is checked

    def __init__(self, cap=128):
        self.cap = cap

    def setup(self, seed: int, work: Path):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(8, 3))
        labels = rng.integers(0, 2, size=8)
        models = [(v, model_mod.build(model_mod.ModelConfig(variant=v, **self.TOY))) for v in VARIANTS]
        return {"x": x, "labels": labels, "models": models}

    def pass_rounds(self, state) -> int:
        return 1

    def checked(self, model) -> set[str]:
        names = {n for n, p in model.params.items() if p.value.size <= self.cap}
        for part in self.ALWAYS:
            names.update([n for n in model.params if part in n][:1])
        return names

    def report(self, model, x, labels, op: Op | None = None):
        """Run the report with the unchecked blocks skipped (reported as NaN).

        Each probe, one untaped forward of the loss, is timed as one unit of
        its block's part; the taped forward for the analytic gradient is not.
        """
        real = train_mod.finite_diff_check
        checked, names = self.checked(model), iter(model.params)
        calls = []

        def capped(f, arr, eps=1e-5):
            if next(names, None) not in checked:
                calls.append(None)
                return math.nan
            size = int(np.prod(arr.shape))
            key = len(calls) + 1

            def timed(v):
                if autodiff.taping():
                    return f(v)
                started = clock()
                out = f(v)
                op.time(key, started)
                return out

            err = real(f if op is None else timed, arr, eps)
            calls.append(size)
            if op is not None:
                op.units[key] = 2 * size
            return err

        train_mod.finite_diff_check = capped
        try:
            rows = train_mod.finite_difference_report(model, x, labels, eps=1e-5)
        finally:
            train_mod.finite_diff_check = real
        return rows, calls

    def round(self, state) -> list[Op]:
        ops = []
        for variant, model in state["models"]:
            op = Op(variant, state.get("gauge"))
            started = clock()
            try:
                rows, calls = self.report(model, state["x"], state["labels"], op)
                op.seconds = clock() - started
                op.items = 2 * sum(c for c in calls if c is not None)
                problem = self._problem(model, rows, calls)
                if problem is not None:
                    op.ok, op.extra["error"] = False, problem
            except Exception as exc:  # a failing report is counted, the loop goes on
                op.seconds = clock() - started
                op.ok, op.extra["error"] = False, repr(exc)
            ops.append(op)
        return ops

    def _problem(self, model, rows, calls):
        if len(calls) != len(model.params) or [n for n, _ in rows] != list(model.params):
            return ("finite_difference_report no longer checks each block through "
                    "finite_diff_check; the capped report cannot be made")
        checked = self.checked(model)
        for (name, err), size in zip(rows, calls):
            if size is None:
                if name in checked or not math.isnan(err):
                    return f"{name}: skipped block reported {err!r}"
            elif not err <= GRAD_TOL:
                return f"{name}: relative gradient error {err!r} above {GRAD_TOL}"
        return None

    def check(self, state, ops: list[Op]) -> int:
        """Each checked block was at most 1e-4 (judged per report in ``round``)."""
        return sum(not op.ok for op in ops)

    def quality(self, state, ops: list[Op]) -> float:
        losses = []
        for _, model in state["models"]:
            probs = model.forward(state["x"], training=False)
            losses.append(train_mod.cross_entropy_loss(probs, state["labels"]).value.item())
        return float(np.mean(losses))

    def peak_op(self, state):
        _, model = state["models"][0]
        return lambda: self.report(model, state["x"], state["labels"])


WORKLOADS = {w.name: w for w in (TrainLong, EvalCorpus, GradCheck)}
