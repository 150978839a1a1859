import pytest

from streamdet.evaluate import (cluster_purity, detection_pr, recall_at_n,
                                temporal_consistency)


def _rec(frame, x, y, w=10, h=10, **extra):
    return {"frame": frame, "x": x, "y": y, "w": w, "h": h, **extra}


GT_A = {"id": 1, "class": "red", "x": 0, "y": 0, "w": 10, "h": 10}


def test_recall_counts_iou_of_exactly_one_half():
    gt = {0: [GT_A]}
    half = _rec(0, 0, 0, w=10, h=5, score=1.0)       # IoU 50 / 100
    below = _rec(0, 0, 0, w=10, h=4, score=1.0)      # IoU 40 / 100
    assert recall_at_n({0: [half]}, gt, 1) == 1.0
    assert recall_at_n({0: [below]}, gt, 1) == 0.0


def test_recall_takes_the_top_n_by_score():
    gt = {0: [GT_A], 1: [dict(GT_A, id=2)]}
    hit = _rec(0, 0, 0, score=0.2)
    misses = [_rec(0, 30, 30, score=0.9), _rec(0, 50, 50, score=0.5)]
    preds = {0: misses + [hit]}        # frame 1 has no predictions
    assert recall_at_n(preds, gt, 2) == 0.0
    assert recall_at_n(preds, gt, 3) == 0.5
    assert recall_at_n({}, {}, 5) == 0.0


def test_cluster_purity_counts_background_as_one_object():
    gt = {0: [GT_A], 1: [GT_A]}
    records = [_rec(0, 0, 0, global_id=0), _rec(1, 1, 0, global_id=0),
               _rec(1, 0, 1, global_id=0), _rec(0, 40, 40, global_id=0),
               _rec(0, 40, 40, global_id=1), _rec(1, 60, 0, global_id=1)]
    # cluster 0: three of object 1 and one background window; cluster 1: two
    # background windows, which agree with each other
    assert cluster_purity(records, gt) == pytest.approx(5 / 6)
    assert cluster_purity([], gt) == 0.0


def test_temporal_consistency_uses_the_modal_id():
    gt = {t: [GT_A] for t in range(4)}
    records = [_rec(0, 0, 0, global_id=5), _rec(1, 0, 0, global_id=5),
               # frame 2: one window each; id 5 overlaps more and wins the tie
               _rec(2, 0, 0, global_id=5), _rec(2, 2, 0, global_id=7),
               # frame 3: two windows of id 7 outvote one of id 5
               _rec(3, 0, 0, global_id=7), _rec(3, 1, 0, global_id=7),
               _rec(3, 0, 1, global_id=5)]
    out = temporal_consistency(records, gt)
    assert out[1] == {"frames_matched": 4, "stable_fraction": 0.75}
    assert out["mean_stable_fraction"] == 0.75
    assert temporal_consistency([], gt) == {"mean_stable_fraction": 0.0}


def test_detection_pr_matches_each_ground_truth_box_once_in_confidence_order():
    gt_b = dict(GT_A, id=2, x=4)
    gt = {0: [GT_A, gt_b], 1: [dict(GT_A, id=3, **{"class": "blue"})]}
    # the confident detection overlaps A (0.82) better than B (0.54) and takes
    # A; the other one overlaps only A (B at 0.43), so it matches nothing,
    # although taking them the other way round would match both
    dets = [_rec(0, 0, 0, confidence=0.6, **{"class": "red"}),
            _rec(0, 1, 0, confidence=0.9, **{"class": "red"}),
            _rec(1, 0, 0, confidence=0.8, **{"class": "red"})]
    out = detection_pr(dets, gt, ["red", "blue", "green"])
    assert out["red"] == {"precision": 1 / 3, "recall": 0.5, "tp": 1,
                          "predictions": 3, "ground_truth": 2}
    assert out["blue"] == {"precision": 0.0, "recall": 0.0, "tp": 0,
                           "predictions": 0, "ground_truth": 1}
    assert out["green"]["ground_truth"] == 0


def test_detection_pr_duplicate_detections_count_once():
    gt = {0: [GT_A]}
    dets = [_rec(0, 0, 0, confidence=c, **{"class": "red"}) for c in (0.9, 0.8)]
    out = detection_pr(dets, gt, ["red"])["red"]
    assert (out["tp"], out["precision"], out["recall"]) == (1, 0.5, 1.0)
