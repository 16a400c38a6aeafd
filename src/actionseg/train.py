"""Loss, optimizer, training loop and frame-label prediction.

Training uses one sequence per optimizer update: lengths vary widely between
videos, so there is no padded batching anywhere. All randomness (shuffling,
dropout masks) derives from the single seed passed to :func:`train`, which
makes two runs with the same seed and data bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .autodiff import (Tape, Variable, as_variable, finite_diff_check, record, slice_axis,
                       taping, _accum)
from .errors import ContractError, ShapeError
from .metrics import MetricsReport, evaluate
from .model import Model, save_checkpoint
from .tensor import Tensor

__all__ = [
    "LOG_GUARD",
    "AdamState",
    "EpochStats",
    "TrainReport",
    "TrainingDiverged",
    "cross_entropy_loss",
    "adam_step",
    "train",
    "predict",
    "finite_difference_report",
]

LOG_GUARD = 1e-12


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss or gradient.

    ``block`` names the first parameter block, in ``model.params`` order,
    whose gradient is not finite; it is None when the loss itself is not.
    """

    def __init__(self, epoch: int, sample_id: str, *, block: str | None = None):
        self.epoch = epoch
        self.sample_id = sample_id
        self.block = block
        what = "loss" if block is None else f"gradient of {block}"
        super().__init__(f"non-finite {what} at epoch {epoch}, sequence {sample_id!r}")


def cross_entropy_loss(yhat, labels, mask=None) -> Variable:
    """Mean negative log probability of the true class over the masked frames.

    ``yhat`` holds per-frame probabilities (frames, classes); ``labels`` are
    integer class ids; ``mask`` selects the frames that count (all by
    default). The probability is guarded by 1e-12 inside the log.
    """
    yhat = as_variable(yhat)
    probs = yhat.value.data
    if probs.ndim != 2:
        raise ShapeError(f"probabilities must be (frames, classes), got {yhat.value.shape}")
    t_len, classes = probs.shape
    labels = np.asarray(labels)
    if labels.shape != (t_len,):
        raise ContractError(f"labels length {labels.shape} does not match {t_len} frames")
    bad = np.flatnonzero((labels < 0) | (labels >= classes))
    if bad.size:
        raise ContractError(
            f"label {int(labels[bad[0]])} at frame {int(bad[0])} outside [0, {classes})"
        )
    if mask is None:
        idx = np.arange(t_len)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (t_len,):
            raise ContractError(f"mask length {mask.shape} does not match {t_len} frames")
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise ContractError("mask selects no frames")

    picked = probs[idx, labels[idx]]
    guarded = picked + LOG_GUARD
    out = Variable(Tensor._wrap(np.asarray(-np.log(guarded).mean())))

    if taping():
        n = idx.size
        lbl = labels[idx]
        def bw(g):
            d = np.zeros_like(probs)
            d[idx, lbl] = -float(g) / (n * guarded)
            _accum(yhat, d)
        record(out, (yhat,), bw)
    return out


@dataclass
class AdamState:
    """Per-parameter first/second moments plus the shared step counter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict[int, np.ndarray] = field(default_factory=dict)
    v: dict[int, np.ndarray] = field(default_factory=dict)


def adam_step(params, grads, state: AdamState):
    """One bias-corrected moment update applied to every parameter in place.

    m and v track the gradient and squared gradient with decay beta1/beta2;
    each parameter moves by -lr * m_hat / (sqrt(v_hat) + eps).
    """
    params = list(params)
    grads = [g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64) for g in grads]
    if len(params) != len(grads):
        raise ContractError(f"{len(params)} parameters but {len(grads)} gradients")
    state.t += 1
    correction1 = 1.0 - state.beta1 ** state.t
    correction2 = 1.0 - state.beta2 ** state.t
    for p, g in zip(params, grads):
        if g.shape != p.value.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.value.shape}")
        m = state.m.get(p.vid)
        if m is None:
            m = np.zeros_like(g)
            v = np.zeros_like(g)
        else:
            v = state.v[p.vid]
        m = state.beta1 * m + (1.0 - state.beta1) * g
        v = state.beta2 * v + (1.0 - state.beta2) * g * g
        state.m[p.vid] = m
        state.v[p.vid] = v
        step = state.lr * (m / correction1) / (np.sqrt(v / correction2) + state.eps)
        p.value = Tensor._wrap(p.value.data - step)
    return params, state


@dataclass
class EpochStats:
    epoch: int
    loss: float
    train_acc: float
    val_acc: float
    val_edit: float
    val_f1: dict[float, float]


@dataclass
class TrainReport:
    """Per-epoch training curve plus the final validation metrics.

    Wall time appears only in the text rendering; the key-value form must be
    byte-identical across reruns with the same seed.
    """

    epochs: list[EpochStats]
    final: MetricsReport
    wall_time: float

    def to_kv(self) -> str:
        lines = [f"epochs={len(self.epochs)}"]
        for e in self.epochs:
            prefix = f"epoch.{e.epoch}"
            lines.append(f"{prefix}.loss={e.loss!r}")
            lines.append(f"{prefix}.train_acc={e.train_acc!r}")
            lines.append(f"{prefix}.val.acc={e.val_acc!r}")
            lines.append(f"{prefix}.val.edit={e.val_edit!r}")
            lines += [f"{prefix}.val.f1@{int(k)}={v!r}" for k, v in e.val_f1.items()]
        for line in self.final.to_kv().splitlines():
            lines.append(f"final.val.{line}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        thr = list(self.final.f1)
        header = (f"{'epoch':>5} {'loss':>10} {'train_acc':>10} {'val_acc':>8} {'val_edit':>8} "
                  + " ".join(f"{'val_f1@' + str(int(k)):>10}" for k in thr))
        lines = [header]
        for e in self.epochs:
            lines.append(f"{e.epoch:>5} {e.loss:>10.6f} {e.train_acc:>10.3f} {e.val_acc:>8.3f} "
                         f"{e.val_edit:>8.3f} " + " ".join(f"{e.val_f1[k]:>10.3f}" for k in thr))
        lines.append("")
        lines.append("final validation:")
        lines.append(self.final.to_text())
        lines.append(f"wall_time_s {self.wall_time:.3f}")
        return "\n".join(lines) + "\n"


def predict(model: Model, x) -> np.ndarray:
    """Per-frame argmax class ids in inference mode; ties go to the lowest id."""
    probs = model.forward(x, training=False).value.data
    return probs.argmax(axis=1)


def train(model: Model, train_set, val_set, epochs: int, seed: int = 0, lr: float = 1e-3,
          beta1: float = 0.9, beta2: float = 0.999, adam_eps: float = 1e-8,
          thresholds=(10, 25, 50), background: int | None = None,
          checkpoint_path=None, early_stop_train_acc: float | None = None) -> TrainReport:
    """Optimize the model on ``train_set``, scoring ``val_set`` each epoch.

    Every epoch shuffles the training sequences (seeded) and applies one Adam
    update per sequence, computed from a training-mode forward pass. The
    reported training accuracy comes from those same training-mode outputs.
    A non-finite loss aborts with :class:`TrainingDiverged` naming the epoch
    and sequence; a non-finite gradient aborts before the update, also naming
    the first parameter block whose gradient is not finite.
    ``early_stop_train_acc`` optionally ends training once the epoch's
    training accuracy reaches the given percentage.
    """
    started = time.perf_counter()
    ss = np.random.SeedSequence(seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(child) for child in ss.spawn(2))
    params = list(model.params.values())
    state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=adam_eps)

    def validate() -> MetricsReport:
        with np.errstate(all="ignore"):
            preds = [predict(model, s.features) for s in val_set]
        return evaluate(preds, [np.asarray(s.labels) for s in val_set], thresholds,
                        background=background, ids=[s.id for s in val_set])

    history: list[EpochStats] = []
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(train_set))
        loss_sum = 0.0
        hit = 0
        total = 0
        for j in order:
            sample = train_set[j]
            tape = Tape()
            with tape, np.errstate(all="ignore"):
                probs = model.forward(sample.features, training=True, rng=dropout_rng)
                loss = cross_entropy_loss(probs, sample.labels)
            loss_value = loss.value.item()
            if not np.isfinite(loss_value):
                raise TrainingDiverged(epoch, sample.id)
            tape.backward(loss)
            grads = [p._grad if p._grad is not None else np.zeros(p.value.shape) for p in params]
            for p in params:
                p.zero_grad()
            bad = next((name for name, g in zip(model.params, grads) if not np.isfinite(g).all()), None)
            if bad is not None:
                raise TrainingDiverged(epoch, sample.id, block=bad)
            with np.errstate(all="ignore"):
                adam_step(params, grads, state)
            loss_sum += loss_value
            hit += int(np.count_nonzero(probs.value.data.argmax(axis=1) == np.asarray(sample.labels)))
            total += len(sample.labels)

        rep = validate()
        stats = EpochStats(epoch, loss_sum / len(train_set), 100.0 * hit / total,
                           rep.accuracy, rep.edit, dict(rep.f1))
        history.append(stats)
        if early_stop_train_acc is not None and stats.train_acc >= early_stop_train_acc:
            break

    final = validate()
    report = TrainReport(history, final, time.perf_counter() - started)
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path)
    return report


def finite_difference_report(model: Model, x, labels, eps: float = 1e-5) -> list[tuple[str, float]]:
    """Max relative gradient error of the full loss for every parameter block.

    Each block is checked coordinate-by-coordinate against central
    differences with the model's other parameters held fixed, in
    ``model.params`` (stage table) order. The report runs on a shadow of the
    stage table (``Stage.shadow``): the same read-only values under fresh
    variables, so its taped passes never touch the model's variables or
    their gradients. Stage outputs upstream of the owning stage do not
    depend on the block, so they are computed once; each probe reruns from a
    copy of the owning stage built around the probe variable (``Stage.swap``).
    """
    table = [stage.shadow() for stage in model.table]
    arr, t_len = model.prepare_input(x)
    inputs = [Tensor._wrap(arr)]
    for stage in table:
        inputs.append(stage(Variable(inputs[-1])).value)

    def loss_from(s, name, v):
        u = table[s].swap(name, v)(Variable(inputs[s]))
        for stage in table[s + 1:]:
            u = stage(u)
        if u.value.shape[0] != t_len:
            u = slice_axis(u, 0, 0, t_len)
        return cross_entropy_loss(u, labels)

    return [(name, finite_diff_check(partial(loss_from, s, name), var.value, eps))
            for s, stage in enumerate(table) for name, var in stage.params()]
