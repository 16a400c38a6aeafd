"""Evaluation metrics for frame-label sequences.

Three scores are produced: frame-wise accuracy, a segmental edit score that
penalizes over-segmentation (100 minus the normalized Levenshtein distance
between the segment class strings), and a segmental overlap F1 at one or
more IoU thresholds. Background segments are dropped from the two segmental
scores, while background frames still count toward accuracy.

All functions are pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

__all__ = [
    "Segment",
    "SequenceScores",
    "MetricsReport",
    "frame_accuracy",
    "segments_from_labels",
    "levenshtein",
    "edit_score",
    "overlap_f1",
    "evaluate",
]


@dataclass(frozen=True)
class Segment:
    """A maximal run of one class: [start, end) in frame indices."""

    label: int
    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ContractError(f"segment must be non-empty, got [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start


def frame_accuracy(pred, gt) -> float:
    """Percentage of frames whose predicted class matches the reference."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape or pred.ndim != 1 or pred.size == 0:
        raise ContractError(f"label sequences must be non-empty and of equal length, "
                            f"got {pred.shape} vs {gt.shape}")
    return 100.0 * float(np.count_nonzero(pred == gt)) / pred.size


def segments_from_labels(labels, background: int | None = None) -> list[Segment]:
    """Run-length encode a label sequence; background runs are dropped if given."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 1:
        raise ContractError("labels must be a non-empty 1-D sequence")
    ends = np.append(np.flatnonzero(labels[1:] != labels[:-1]) + 1, labels.size).tolist()
    runs = [Segment(int(labels[s]), s, e) for s, e in zip([0, *ends], ends)]
    return [seg for seg in runs if background is None or seg.label != background]


def levenshtein(a, b) -> int:
    """Edit distance between two sequences (insert / delete / substitute, cost 1).

    Bit-parallel: Myers's algorithm (J. ACM 46(3), 1999) in Hyyrö's form
    for the edit distance (Nordic J. Computing 10(1), 2003). Bit i of the
    Python ints ``pv`` and ``mv`` says whether row i of the DP column over
    the longer sequence is one more or one less than row i - 1, so each
    element of the shorter sequence costs a dozen integer operations
    whatever the longer one's length. ``score`` follows the last row. The
    elements must be hashable.
    """
    a, b = tuple(a), tuple(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq = {}  # element -> bit set of the rows of a that hold it
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | 1 << i
    rows = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, score = rows, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = ph << 1 | 1  # row 0 of every column grows by one
        pv = (mh << 1 | ~(xv | ph)) & rows
        mv = ph & xv
    return score


def edit_score(pred_segments, gt_segments) -> float:
    """100 * (1 - normalized edit distance) between the segment class strings."""
    p = [s.label for s in pred_segments]
    g = [s.label for s in gt_segments]
    if not p and not g:
        return 100.0
    return 100.0 * (1.0 - levenshtein(p, g) / max(len(p), len(g)))


def overlap_f1(pred_segments, gt_segments, k: float) -> float:
    """Segmental F1 where a prediction is correct if it overlaps an unmatched
    same-class reference segment with IoU strictly above k/100.

    Matching is greedy in prediction order; among the unmatched candidates a
    prediction takes the one with the highest IoU (earliest on ties), and a
    reference segment can be matched at most once. IoU is computed on frame
    counts: |intersection| / (|pred| + |gt| - |intersection|).
    """
    if not 0 < k < 100:
        raise ContractError(f"threshold must be in (0, 100), got {k}")
    pred = list(pred_segments)
    gt = list(gt_segments)
    if not pred and not gt:
        return 100.0
    matched = [False] * len(gt)
    tp = 0
    for p in pred:
        best, best_iou = -1, 0.0
        for idx, g in enumerate(gt):
            if matched[idx] or g.label != p.label:
                continue
            inter = max(0, min(p.end, g.end) - max(p.start, g.start))
            if inter == 0:
                continue
            union = len(p) + len(g) - inter
            iou = inter / union
            if iou > best_iou:
                best, best_iou = idx, iou
        if best >= 0 and best_iou > k / 100.0:
            matched[best] = True
            tp += 1
    precision = tp / len(pred) if pred else 0.0
    recall = tp / len(gt) if gt else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 200.0 * precision * recall / (precision + recall)


@dataclass
class SequenceScores:
    sample_id: str
    accuracy: float
    edit: float
    f1: dict[float, float]


@dataclass
class MetricsReport:
    """Aggregate and per-sequence scores, all in [0, 100].

    Accuracy is pooled over every frame of every sequence; edit and F1 are
    computed per sequence and averaged unweighted.
    """

    accuracy: float
    edit: float
    f1: dict[float, float]
    per_sequence: list[SequenceScores] = field(default_factory=list)

    def to_kv(self) -> str:
        lines = [f"acc={_fmt(self.accuracy)}", f"edit={_fmt(self.edit)}"]
        lines += [f"f1@{_fmt_thr(k)}={_fmt(v)}" for k, v in self.f1.items()]
        for seq in self.per_sequence:
            lines.append(f"seq.{seq.sample_id}.acc={_fmt(seq.accuracy)}")
            lines.append(f"seq.{seq.sample_id}.edit={_fmt(seq.edit)}")
            lines += [f"seq.{seq.sample_id}.f1@{_fmt_thr(k)}={_fmt(v)}" for k, v in seq.f1.items()]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        thr = list(self.f1)
        header = f"{'sequence':<16} {'acc':>8} {'edit':>8} " + " ".join(f"{'f1@' + _fmt_thr(k):>8}" for k in thr)
        lines = [header]
        for seq in self.per_sequence:
            lines.append(f"{seq.sample_id:<16} {seq.accuracy:>8.3f} {seq.edit:>8.3f} "
                         + " ".join(f"{seq.f1[k]:>8.3f}" for k in thr))
        lines.append(f"{'overall':<16} {self.accuracy:>8.3f} {self.edit:>8.3f} "
                     + " ".join(f"{self.f1[k]:>8.3f}" for k in thr))
        return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return repr(float(v))


def _fmt_thr(k: float) -> str:
    return str(int(k)) if float(k).is_integer() else repr(float(k))


def evaluate(preds, gts, thresholds=(10, 25, 50), background: int | None = None,
             ids=None) -> MetricsReport:
    """Score a corpus of predictions against references.

    ``preds`` and ``gts`` are parallel lists of non-empty per-frame label
    sequences of matching lengths, and ``ids``, if given, names each pair.
    ``background`` marks the class excluded from segmental scoring; its
    frames still count toward accuracy.
    """
    preds = list(preds)
    gts = list(gts)
    if not preds or len(preds) != len(gts):
        raise ContractError(f"corpus mismatch: {len(preds)} predictions vs {len(gts)} references")
    ids = [str(i) for i in range(len(preds))] if ids is None else list(ids)
    if len(ids) != len(preds):
        raise ContractError(f"corpus mismatch: {len(ids)} ids for {len(preds)} predictions")

    equal = 0
    total = 0
    per_sequence = []
    for sid, pred, gt in zip(ids, preds, gts):
        pred = np.asarray(pred)
        gt = np.asarray(gt)
        acc = frame_accuracy(pred, gt)
        equal += int(np.count_nonzero(pred == gt))
        total += gt.size
        pseg = segments_from_labels(pred, background)
        gseg = segments_from_labels(gt, background)
        per_sequence.append(SequenceScores(
            sample_id=str(sid),
            accuracy=acc,
            edit=edit_score(pseg, gseg),
            f1={k: overlap_f1(pseg, gseg, k) for k in thresholds},
        ))

    n = len(per_sequence)
    return MetricsReport(
        accuracy=100.0 * equal / total,
        edit=sum(s.edit for s in per_sequence) / n,
        f1={k: sum(s.f1[k] for s in per_sequence) / n for k in thresholds},
        per_sequence=per_sequence,
    )
