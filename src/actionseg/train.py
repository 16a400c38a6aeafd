"""Loss, optimizer, training loop and frame-label prediction.

Training uses one sequence per optimizer update: lengths vary widely between
videos, so there is no padded batching anywhere. All randomness (shuffling,
dropout masks) derives from the single seed passed to :func:`train`, which
makes two runs with the same seed and data bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .autodiff import (Tape, Variable, as_variable, finite_diff_check, node_of, record,
                       slice_axis, taping, _accum)
from .errors import ContractError, ShapeError
from .layers import _rows_of
from .metrics import MetricsReport, _fmt_thr, evaluate
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

# Adam's moment decays and denominator guard; only its learning rate is a setting
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    integer class ids (an integer array or sequence, ContractError for
    anything else); ``mask`` selects the frames that count (all by
    default). The probability is guarded by 1e-12 inside the log.
    """
    yhat = as_variable(yhat)
    probs = yhat.value.data
    if probs.ndim != 2:
        raise ShapeError(f"probabilities must be (frames, classes), got {yhat.value.shape}")
    t_len, classes = probs.shape
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu":
        raise ContractError(f"labels must be integer class ids, got dtype {labels.dtype}")
    if labels.shape != (t_len,):
        raise ContractError(f"labels length {labels.shape} does not match {t_len} frames")
    if np.minimum.reduce(labels) < 0 or np.maximum.reduce(labels) >= classes:
        bad = np.flatnonzero((labels < 0) | (labels >= classes))
        raise ContractError(
            f"label {int(labels[bad[0]])} at frame {int(bad[0])} outside [0, {classes})"
        )
    if mask is None:
        idx, lbl = np.arange(t_len), labels
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (t_len,):
            raise ContractError(f"mask length {mask.shape} does not match {t_len} frames")
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise ContractError("mask selects no frames")
        lbl = labels[idx]

    n = idx.size
    guarded = probs[idx, lbl] + LOG_GUARD
    # the mean as ndarray.mean computes it, without its Python-level wrapper
    out = Variable(Tensor._wrap(np.asarray(-(np.add.reduce(np.log(guarded)) / n))))

    if taping():
        src, shape = node_of(yhat), probs.shape
        def bw(g):
            d = np.zeros(shape, dtype=np.float64)
            d[idx, lbl] = -float(g) / (n * guarded)
            _accum(src, d)
        record(out, bw)
    return out


@dataclass
class AdamState:
    """The learning rate, the moments keyed on each parameter's Variable and the shared step counter.

    The decays and the guard are fixed: ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
    """

    lr: float = 1e-3
    t: int = 0
    m: dict[Variable, np.ndarray] = field(default_factory=dict)
    v: dict[Variable, np.ndarray] = field(default_factory=dict)


def adam_step(params, grads, state: AdamState):
    """One bias-corrected moment update applied to every parameter in place.

    m and v track the gradient and squared gradient with decay ADAM_BETA1/2;
    each parameter moves by -lr * m_hat / (sqrt(v_hat) + ADAM_EPS). The moments
    are updated in place, by the same operations in the same order as that
    formula, so the result is bit-identical to computing it afresh.

    A gradient that is not C-ordered (the plain convolution's kernel
    gradient is a transposed view) is copied to C order first, so the
    moments and the updated parameter are C-ordered.

    Parameters that are, in order, every row of one read-only array (a
    model's LSTM gate weights, see ``LSTMParams.stacked``) get their
    updates written into the same rows of one new array, read-only once
    the step is done; only the output buffer differs, so the bits do not.
    So the stacked weights stay views from step to step. A call that
    updates only some rows of such an array gives them arrays of their
    own.
    """
    params = list(params)
    grads = [g.data if isinstance(g, Tensor) else np.asarray(g, dtype=np.float64, order="C") for g in grads]
    if len(params) != len(grads):
        raise ContractError(f"{len(params)} parameters but {len(grads)} gradients")
    by_base: dict[int, list[np.ndarray]] = {}
    for p, g in zip(params, grads):
        if g.shape != p.value.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.value.shape}")
        if p.value.data.base is not None:
            by_base.setdefault(id(p.value.data.base), []).append(p.value.data)
    # the new array of each whole group, and each member's row of it, by the id of its
    # old row; the old rows are held until the call returns, so no id is reused
    groups, outs = [], {}
    for arrs in by_base.values():
        base = _rows_of(arrs)
        if base is not None:
            groups.append(np.empty_like(base))
            outs.update(zip(map(id, arrs), groups[-1]))
    state.t += 1
    correction1 = 1.0 - ADAM_BETA1 ** state.t
    correction2 = 1.0 - ADAM_BETA2 ** state.t
    for p, g in zip(params, grads):
        m = state.m.get(p)
        if m is None:
            m = state.m[p] = np.zeros_like(g)
            v = state.v[p] = np.zeros_like(g)
        else:
            v = state.v[p]
        tmp = np.multiply(1.0 - ADAM_BETA1, g)
        m *= ADAM_BETA1
        m += tmp
        np.multiply(1.0 - ADAM_BETA2, g, out=tmp)
        tmp *= g
        v *= ADAM_BETA2
        v += tmp
        step = np.divide(m, correction1)
        step *= state.lr
        np.divide(v, correction2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        step /= tmp
        p.value = Tensor._wrap(np.subtract(p.value.data, step, out=outs.get(id(p.value.data), step)))
    for group in groups:
        group.setflags(write=False)
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
            lines += [f"{prefix}.val.f1@{_fmt_thr(k)}={v!r}" for k, v in e.val_f1.items()]
        for line in self.final.to_kv().splitlines():
            lines.append(f"final.val.{line}")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        # a column is 10 wide, or as wide as its name (val_f1@12.25)
        cols = [(k, "val_f1@" + _fmt_thr(k)) for k in self.final.f1]
        header = (f"{'epoch':>5} {'loss':>10} {'train_acc':>10} {'val_acc':>8} {'val_edit':>8} "
                  + " ".join(f"{name:>10}" for _, name in cols))
        lines = [header]
        for e in self.epochs:
            lines.append(f"{e.epoch:>5} {e.loss:>10.6f} {e.train_acc:>10.3f} {e.val_acc:>8.3f} "
                         f"{e.val_edit:>8.3f} "
                         + " ".join(f"{e.val_f1[k]:>{max(10, len(name))}.3f}" for k, name in cols))
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
    training accuracy reaches the given percentage. An empty training or
    validation set is a :class:`ContractError`, raised before any update.
    """
    for what, samples in (("training", train_set), ("validation", val_set)):
        if len(samples) == 0:
            raise ContractError(f"the {what} set is empty")
    started = time.perf_counter()
    ss = np.random.SeedSequence(seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(child) for child in ss.spawn(2))
    params = list(model.params.values())
    state = AdamState(lr=lr)

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
    ``model.params`` (stage table) order. Each stage's ``forward`` runs on a
    shadow of its blocks: copies whose fields are fresh variables over the
    same read-only tensors, so the report assigns nothing to the model and
    its taped passes never touch the model's variables or their gradients;
    the gradients they leave on the shadow are dropped after each block's
    check. Stage outputs upstream of the owning stage do not depend on the
    block, so they are computed once; each probe reruns from the owning
    stage. The owning block is copied once per checked block, and the taped
    pass and every probe assign their variable to that copy's field. So the
    copy's derived weights that the probed field does not feed, such as a
    conv bias probe's merged kernels (``Conv1DParams.merged_kernels``) or
    the other gate groups of an LSTM probe (``LSTMParams.stacked``), are
    built once per block; those it feeds are rebuilt per probe, since every
    probe's tensor is a new object.
    """
    shadow = [[replace(block, **{f.name: Variable(getattr(block, f.name).value) for f in fields(block)})
               for block in stage.blocks.values()] for stage in model.table]
    stages = [(stage.forward, blocks) for stage, blocks in zip(model.table, shadow)]
    arr, t_len = model.prepare_input(x)
    inputs = [Tensor._wrap(arr)]
    for forward, blocks in stages:
        inputs.append(forward(Variable(inputs[-1]), None, *blocks).value)

    def check(s, b, attr):
        forward, blocks = stages[s]
        blocks = list(blocks)
        probed = blocks[b] = replace(blocks[b])
        later = stages[s + 1:]

        def loss_from(probe):
            setattr(probed, attr, probe)
            u = forward(Variable(inputs[s]), None, *blocks)
            for later_forward, later_blocks in later:
                u = later_forward(u, None, *later_blocks)
            if u.value.shape[0] != t_len:
                u = slice_axis(u, 0, 0, t_len)
            return cross_entropy_loss(u, labels)

        error = finite_diff_check(loss_from, getattr(probed, attr).value, eps)
        # the taped pass left gradients on the shadow variables it reached,
        # which nothing reads
        for stage_blocks in shadow[s:]:
            for block in stage_blocks:
                for f in fields(block):
                    getattr(block, f.name).zero_grad()
        return error

    return [(f"{prefix}.{f.name}", check(s, b, f.name)) for s, stage in enumerate(model.table)
            for b, (prefix, block) in enumerate(stage.blocks.items()) for f in fields(block)]
