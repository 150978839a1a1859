"""Evaluation metrics: proposal recall, cluster purity, temporal identity
consistency and per-class detection precision/recall."""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from .core import Box, iou

MATCH_IOU = 0.5


def _rec_box(rec: dict) -> Box:
    return Box(rec["x"], rec["y"], rec["w"], rec["h"])


def recall_at_n(pred_by_frame: dict[int, list[dict]],
                gt_by_frame: dict[int, list[dict]], n: int) -> float:
    """Fraction of ground-truth boxes covered (IoU >= MATCH_IOU) by the top-n
    predictions of their frame."""
    total = 0
    hit = 0
    for frame, gts in gt_by_frame.items():
        preds = pred_by_frame.get(frame, [])
        preds = sorted(preds, key=lambda r: -r.get("score", 0.0))[:n]
        boxes = [_rec_box(r) for r in preds]
        for g in gts:
            total += 1
            gbox = _rec_box(g)
            if any(iou(gbox, b) >= MATCH_IOU for b in boxes):
                hit += 1
    return hit / total if total else 0.0


def _assign_gt(rec: dict, gts: list[dict]):
    """Ground-truth object id best overlapping a record at IoU >= MATCH_IOU,
    or None."""
    box = _rec_box(rec)
    best, best_iou = None, MATCH_IOU
    for g in gts:
        v = iou(box, _rec_box(g))
        if v >= best_iou:
            best, best_iou = g["id"], v
    return best


def cluster_purity(records: list[dict], gt_by_frame: dict[int, list[dict]]) -> float:
    """Majority-ground-truth fraction over all cluster members, the records
    grouped by their "global_id".

    Every record is matched to the ground-truth object it overlaps best
    (IoU >= MATCH_IOU) or to a background pseudo-object; purity is the
    weighted mean fraction of members agreeing with their cluster's majority.
    """
    by_cluster: dict = defaultdict(list)
    for rec in records:
        gt_id = _assign_gt(rec, gt_by_frame.get(rec["frame"], []))
        by_cluster[rec["global_id"]].append(gt_id)
    total = 0
    agree = 0
    for members in by_cluster.values():
        counts = Counter(members)
        agree += counts.most_common(1)[0][1]
        total += len(members)
    return agree / total if total else 0.0


def temporal_consistency(records: list[dict],
                         gt_by_frame: dict[int, list[dict]]) -> dict:
    """Per ground-truth object: fraction of its frames carrying the object's
    modal "global_id".

    For each frame, the object's id is taken from the cluster owning the most
    records matched to that object at IoU >= MATCH_IOU (ties: higher summed
    IoU).
    """
    by_frame: dict[int, list[dict]] = {}
    for rec in records:
        by_frame.setdefault(rec["frame"], []).append(rec)
    per_object_frames: dict[int, dict[int, int]] = defaultdict(dict)
    for frame, gts in gt_by_frame.items():
        frame_recs = by_frame.get(frame, [])
        for g in gts:
            gbox = _rec_box(g)
            votes: dict = defaultdict(lambda: [0, 0.0])
            for rec in frame_recs:
                v = iou(gbox, _rec_box(rec))
                if v >= MATCH_IOU:
                    votes[rec["global_id"]][0] += 1
                    votes[rec["global_id"]][1] += v
            if votes:
                best = max(votes.items(), key=lambda kv: (kv[1][0], kv[1][1], -kv[0]))
                per_object_frames[g["id"]][frame] = best[0]
    out = {}
    scores = []
    for oid, frame_ids in per_object_frames.items():
        ids = list(frame_ids.values())
        modal = Counter(ids).most_common(1)[0][1]
        score = modal / len(ids)
        out[oid] = {"frames_matched": len(ids), "stable_fraction": score}
        scores.append(score)
    out["mean_stable_fraction"] = float(np.mean(scores)) if scores else 0.0
    return out


def detection_pr(detections: list[dict], gt_by_frame: dict[int, list[dict]],
                 classes) -> dict:
    """Greedy per-class matching (confidence order, IoU >= MATCH_IOU, one
    match per ground-truth box) yielding precision/recall per class."""
    out = {}
    for cls in classes:
        preds = sorted((d for d in detections if d["class"] == cls),
                       key=lambda d: -d.get("confidence", 0.0))
        gts = {frame: [g for g in recs if g["class"] == cls]
               for frame, recs in gt_by_frame.items()}
        n_gt = sum(len(v) for v in gts.values())
        matched: set = set()
        tp = 0
        for d in preds:
            box = _rec_box(d)
            best, best_iou = None, MATCH_IOU
            for g in gts.get(d["frame"], []):
                key = (d["frame"], g["id"])
                if key in matched:
                    continue
                v = iou(box, _rec_box(g))
                if v >= best_iou:
                    best, best_iou = key, v
            if best is not None:
                matched.add(best)
                tp += 1
        n_pred = len(preds)
        out[cls] = {"precision": tp / n_pred if n_pred else 0.0,
                    "recall": tp / n_gt if n_gt else 0.0,
                    "tp": tp, "predictions": n_pred, "ground_truth": n_gt}
    return out


def gt_index(gt_doc: dict) -> dict[int, list[dict]]:
    """Frame-index lookup from a ground-truth document."""
    return {f["index"]: f["objects"] for f in gt_doc["frames"]}
