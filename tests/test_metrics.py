import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from actionseg.errors import ContractError
from actionseg.metrics import (Segment, edit_score, evaluate, frame_accuracy, levenshtein,
                               overlap_f1, segments_from_labels)


def seg(label, start, end):
    return Segment(label, start, end)


def test_frame_accuracy_examples():
    assert frame_accuracy([0, 1, 2], [0, 1, 2]) == 100.0
    assert frame_accuracy([0, 0, 1, 1], [0, 1, 1, 0]) == 50.0
    assert frame_accuracy([0, 0], [1, 1]) == 0.0


def test_frame_accuracy_length_mismatch():
    with pytest.raises(ContractError):
        frame_accuracy([0, 1], [0, 1, 2])


def test_frame_accuracy_of_empty_sequences_rejected():
    with pytest.raises(ContractError):
        frame_accuracy([], [])


def test_segments_run_length_oracle():
    a, b = 0, 1
    assert segments_from_labels([a, a, b, b, b, a]) == [seg(a, 0, 2), seg(b, 2, 5), seg(a, 5, 6)]


def test_segments_constant_sequence():
    assert segments_from_labels([3] * 7) == [seg(3, 0, 7)]


def test_segments_background_dropped():
    bg, a = 9, 4
    assert segments_from_labels([bg, a, a, bg], background=bg) == [seg(a, 1, 3)]


def test_edit_score_examples():
    assert edit_score([seg(0, 0, 1)], [seg(0, 0, 5)]) == 100.0
    pred = [seg(0, 0, 2), seg(2, 2, 4)]
    gt = [seg(0, 0, 1), seg(1, 1, 2), seg(2, 2, 3)]
    assert abs(edit_score(pred, gt) - 200.0 / 3.0) < 1e-9
    assert edit_score([seg(7, 0, 3)], [seg(8, 0, 3)]) == 0.0
    assert edit_score([], []) == 100.0


def brute_force_lev(a, b):
    # plain recursive definition; memoized for speed, still independent of
    # the bit-parallel algorithm it checks
    @lru_cache(maxsize=None)
    def rec(x, y):
        if not x:
            return len(y)
        if not y:
            return len(x)
        return min(rec(x[1:], y[1:]) + (x[0] != y[0]),
                   rec(x[1:], y) + 1,
                   rec(x, y[1:]) + 1)
    return rec(tuple(a), tuple(b))


def test_levenshtein_matches_brute_force_short_strings():
    alphabet = (0, 1, 2)
    strings = [s for n in range(4) for s in itertools.product(alphabet, repeat=n)]
    for a in strings:
        for b in strings:
            assert levenshtein(a, b) == brute_force_lev(a, b)


def dp_lev(a, b):
    # the two-row dynamic program over a's prefixes
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


@given(st.lists(st.integers(0, 4), max_size=150), st.lists(st.integers(0, 4), max_size=150))
@example(list(range(70)), list(range(1, 71)))  # columns longer than a 64-bit word
@example([], [1, 2])
def test_levenshtein_equals_the_dynamic_program(a, b):
    assert levenshtein(a, b) == dp_lev(a, b) == levenshtein(b, a)


def test_overlap_f1_identical_is_100_at_every_threshold():
    segs = [seg(0, 0, 4), seg(1, 4, 9), seg(0, 9, 12)]
    for k in (10, 25, 50, 75):
        assert overlap_f1(segs, segs, k) == 100.0


def test_overlap_f1_hand_iou_case():
    gt = [seg(0, 0, 10)]
    pred = [seg(0, 5, 15)]
    # IoU = 5 / 15: above 0.25, not above 0.5
    assert overlap_f1(pred, gt, 25) == 100.0
    assert overlap_f1(pred, gt, 50) == 0.0


def test_overlap_f1_boundary_is_strict():
    gt = [seg(0, 0, 9)]
    pred = [seg(0, 3, 12)]
    # IoU exactly 0.5 does not count at k=50
    assert overlap_f1(pred, gt, 50) == 0.0
    assert overlap_f1(pred, gt, 25) == 100.0


def test_overlap_f1_empty_cases():
    assert overlap_f1([], [], 50) == 100.0
    assert overlap_f1([seg(0, 0, 3)], [], 50) == 0.0
    assert overlap_f1([], [seg(0, 0, 3)], 50) == 0.0


def test_overlap_f1_gt_matched_at_most_once():
    gt = [seg(0, 0, 10)]
    pred = [seg(0, 0, 10), seg(0, 0, 10)]
    # second prediction has no unmatched reference left: one TP, one FP
    score = overlap_f1(pred, gt, 50)
    assert abs(score - 200.0 * 0.5 * 1.0 / 1.5) < 1e-9


def test_overlap_f1_monotone_in_threshold():
    rng = np.random.default_rng(0)
    for _ in range(100):
        def random_segments():
            bounds = np.sort(rng.choice(np.arange(1, 40), size=rng.integers(1, 6), replace=False))
            edges = [0, *bounds.tolist(), 40]
            labels = rng.integers(0, 3, size=len(edges) - 1)
            return [seg(int(l), a, b) for l, a, b in zip(labels, edges[:-1], edges[1:])]
        pred, gt = random_segments(), random_segments()
        scores = [overlap_f1(pred, gt, k) for k in (10, 25, 50, 75, 90)]
        assert all(a >= b for a, b in zip(scores, scores[1:]))


def test_metrics_invariant_to_temporal_scaling():
    pred = [seg(0, 0, 4), seg(1, 4, 9)]
    gt = [seg(0, 0, 5), seg(1, 5, 9)]
    pred3 = [seg(s.label, 3 * s.start, 3 * s.end) for s in pred]
    gt3 = [seg(s.label, 3 * s.start, 3 * s.end) for s in gt]
    assert edit_score(pred, gt) == edit_score(pred3, gt3)
    for k in (10, 25, 50):
        assert overlap_f1(pred, gt, k) == overlap_f1(pred3, gt3, k)


def test_metrics_equivariant_under_relabeling():
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 4, size=60)
    gt = rng.integers(0, 4, size=60)
    perm = np.array([2, 3, 1, 0])
    pred2, gt2 = perm[pred], perm[gt]
    assert frame_accuracy(pred, gt) == frame_accuracy(pred2, gt2)
    assert edit_score(segments_from_labels(pred), segments_from_labels(gt)) == \
        edit_score(segments_from_labels(pred2), segments_from_labels(gt2))
    for k in (10, 25, 50):
        assert overlap_f1(segments_from_labels(pred), segments_from_labels(gt), k) == \
            overlap_f1(segments_from_labels(pred2), segments_from_labels(gt2), k)


def test_evaluate_single_sequence_equals_per_sequence():
    pred = [np.array([0, 0, 1, 1])]
    gt = [np.array([0, 1, 1, 0])]
    rep = evaluate(pred, gt)
    assert rep.accuracy == rep.per_sequence[0].accuracy == 50.0
    assert rep.edit == rep.per_sequence[0].edit


def test_evaluate_pools_accuracy_over_frames():
    pred = [np.zeros(10, dtype=int), np.ones(30, dtype=int)]
    gt = [np.zeros(10, dtype=int), np.full(30, 2)]
    rep = evaluate(pred, gt)
    assert rep.accuracy == 25.0


def test_evaluate_empty_corpus_rejected():
    with pytest.raises(ContractError):
        evaluate([], [])


def test_evaluate_rejects_ids_of_another_length():
    # zip would drop the second sequence and report acc 100.0
    pred, gt = [[0, 0, 1], [1, 1, 1]], [[0, 0, 1], [0, 0, 0]]
    for ids in (["a"], ["a", "b", "c"]):
        with pytest.raises(ContractError):
            evaluate(pred, gt, ids=ids)
    assert evaluate(pred, gt, ids=["a", "b"]).accuracy == 50.0


def test_evaluate_kv_keys():
    rep = evaluate([np.array([0, 1])], [np.array([0, 1])])
    kv = dict(line.split("=") for line in rep.to_kv().splitlines())
    for key in ("acc", "edit", "f1@10", "f1@25", "f1@50"):
        assert key in kv


def test_evaluate_kv_bit_stable():
    rng = np.random.default_rng(2)
    pred = [rng.integers(0, 3, size=20) for _ in range(3)]
    gt = [rng.integers(0, 3, size=20) for _ in range(3)]
    assert evaluate(pred, gt).to_kv() == evaluate(pred, gt).to_kv()


def test_background_excluded_from_segments_but_counted_in_accuracy():
    bg = 0
    pred = [np.array([bg, 1, 1, bg])]
    gt = [np.array([bg, 1, 2, bg])]
    rep = evaluate(pred, gt, background=bg)
    assert rep.accuracy == 75.0
    segs = segments_from_labels(gt[0], background=bg)
    assert all(s.label != bg for s in segs)
