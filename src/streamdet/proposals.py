"""Box scoring on grouped edge content and sliding-window proposal generation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Box, IntegralImage, as_field, iou_matrix
from .edges import EdgeGroup


@dataclass
class Proposal:
    box: Box
    score: float
    frame_index: int = 0


@dataclass
class ProposalParams:
    """Knobs for candidate enumeration, scoring and suppression."""

    max_proposals: int = 500
    step_iou: float = 0.65        # IoU between neighboring sliding-window candidates
    nms_beta: float = 0.75        # greedy suppression overlap
    kappa: float = 1.5            # perimeter normalization exponent
    min_area: float = 1000.0      # smallest candidate area in px^2
    max_aspect: float = 3.0
    magnitude_threshold: float = 0.1
    refine_steps: int = 2         # local refinement rounds (halving step size)
    min_score: float = 1e-9      # boxes without enclosed edge content are dropped

    def __post_init__(self):
        if self.max_proposals < 1:
            raise ValueError("max_proposals must be >= 1")
        if not 0.0 < self.step_iou < 1.0:
            raise ValueError("step_iou must lie in (0, 1)")
        if not 0.0 < self.nms_beta < 1.0:
            raise ValueError("nms_beta must lie in (0, 1)")


class ScoreContext:
    """Per-frame scoring structures: thresholded-magnitude integral image plus
    group bounding boxes, masses and pixel lists."""

    def __init__(self, edge_map, groups: list[EdgeGroup],
                 magnitude_threshold: float = 0.1):
        E = as_field(edge_map)
        self.height, self.width = E.shape
        self.mass_field = np.where(E >= magnitude_threshold, E, 0.0).astype(np.float64)
        self.integral = IntegralImage(self.mass_field)
        self.groups = groups
        n = len(groups)
        self.group_bounds = np.zeros((n, 4), dtype=np.int32)  # x0, y0, x1, y1 half-open
        self.group_mass = np.zeros(n, dtype=np.float64)
        for i, g in enumerate(groups):
            self.group_bounds[i] = (g.bbox.x, g.bbox.y, g.bbox.x2, g.bbox.y2)
            self.group_mass[i] = g.magnitude

    def interior(self, box: Box) -> tuple[int, int, int, int]:
        """Half-open interior rect after removing the 1 px straddle band."""
        return (box.x + 1, box.y + 1, box.x2 - 1, box.y2 - 1)

    def center_rect(self, box: Box) -> tuple[int, int, int, int]:
        """Half-width/half-height centered window used as the clutter penalty."""
        mx, my = box.w // 4, box.h // 4
        return (box.x + mx, box.y + my, box.x2 - mx, box.y2 - my)


def score_box_bruteforce(box: Box, ctx: ScoreContext, kappa: float = 1.5) -> float:
    """Reference scorer for tests: a direct per-group containment scan plus a
    direct pixel sum for the center penalty. Must agree with score_boxes."""
    if box.x < 0 or box.y < 0 or box.x2 > ctx.width or box.y2 > ctx.height:
        raise ValueError(f"box {box} outside {ctx.width}x{ctx.height} frame")
    ix0, iy0, ix1, iy1 = ctx.interior(box)
    numerator = 0.0
    if ix1 > ix0 and iy1 > iy0:
        for g in ctx.groups:
            if (g.bbox.x >= ix0 and g.bbox.y >= iy0
                    and g.bbox.x2 <= ix1 and g.bbox.y2 <= iy1):
                numerator += g.magnitude
    cx0, cy0, cx1, cy1 = ctx.center_rect(box)
    center = 0.0
    if cx1 > cx0 and cy1 > cy0:
        center = float(ctx.mass_field[cy0:cy1, cx0:cx1].sum(dtype=np.float64))
    denom = (2.0 * (box.w + box.h)) ** kappa
    return max(0.0, (numerator - center) / denom)


def score_boxes(boxes: np.ndarray, ctx: ScoreContext, kappa: float = 1.5,
                chunk: int = 4096) -> np.ndarray:
    """Vectorized scoring of an (n, 4) array of (x, y, w, h) candidates."""
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
    n = boxes.shape[0]
    out = np.zeros(n, dtype=np.float64)
    gb = ctx.group_bounds
    mass = ctx.group_mass
    for lo in range(0, n, chunk):
        b = boxes[lo:lo + chunk]
        x, y, w, h = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
        ix0, iy0 = x + 1, y + 1
        ix1, iy1 = x + w - 1, y + h - 1
        if gb.shape[0]:
            contained = ((gb[None, :, 0] >= ix0[:, None]) & (gb[None, :, 1] >= iy0[:, None])
                         & (gb[None, :, 2] <= ix1[:, None]) & (gb[None, :, 3] <= iy1[:, None]))
            numer = contained @ mass
        else:
            numer = np.zeros(b.shape[0], dtype=np.float64)
        numer = np.where((ix1 > ix0) & (iy1 > iy0), numer, 0.0)
        mx, my = w // 4, h // 4
        center = ctx.integral.rect_sums(x + mx, y + my, x + w - mx, y + h - my)
        denom = (2.0 * (w + h)) ** kappa
        out[lo:lo + chunk] = np.maximum(0.0, (numer - center) / denom)
    return out


def _enumerate_candidates(width: int, height: int, params: ProposalParams) -> np.ndarray:
    """Sliding-window candidates over geometric scale/aspect grids whose
    neighbors overlap at roughly step_iou."""
    delta = params.step_iou
    area_step = 1.0 / delta
    aspect_step = ((1.0 + delta) / (2.0 * delta)) ** 2
    max_area = float(width * height)
    boxes = []
    area = params.min_area
    while area <= max_area + 1e-9:
        n_aspects = int(np.floor(np.log(params.max_aspect) / np.log(aspect_step)))
        for k in range(-n_aspects, n_aspects + 1):
            r = aspect_step ** k
            w = int(round(np.sqrt(area * r)))
            h = int(round(np.sqrt(area / r)))
            if w < 4 or h < 4 or w > width or h > height:
                continue
            sx = max(1, int(round(w * (1.0 - delta) / (1.0 + delta))))
            sy = max(1, int(round(h * (1.0 - delta) / (1.0 + delta))))
            xs = list(range(0, width - w + 1, sx))
            ys = list(range(0, height - h + 1, sy))
            if xs[-1] != width - w:
                xs.append(width - w)
            if ys[-1] != height - h:
                ys.append(height - h)
            for yy in ys:
                for xx in xs:
                    boxes.append((xx, yy, w, h))
        area *= area_step
    if not boxes:
        return np.zeros((0, 4), dtype=np.int64)
    return np.unique(np.asarray(boxes, dtype=np.int64), axis=0)


def _refine(boxes: np.ndarray, scores: np.ndarray, ctx: ScoreContext,
            params: ProposalParams) -> tuple[np.ndarray, np.ndarray]:
    """Greedy local search: try +-step moves of each corner coordinate,
    halving the step each round."""
    boxes = boxes.copy()
    scores = scores.copy()
    w0 = np.maximum(boxes[:, 2], boxes[:, 3])
    step = np.maximum(1, (w0 * (1.0 - params.step_iou) / (1.0 + params.step_iou) / 2).astype(np.int64))
    for _ in range(params.refine_steps):
        moves = [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                 (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
        for _pass in range(2):
            improved = False
            for m in moves:
                cand = boxes + np.asarray(m, dtype=np.int64)[None, :] * step[:, None]
                ok = ((cand[:, 0] >= 0) & (cand[:, 1] >= 0)
                      & (cand[:, 2] >= 4) & (cand[:, 3] >= 4)
                      & (cand[:, 0] + cand[:, 2] <= ctx.width)
                      & (cand[:, 1] + cand[:, 3] <= ctx.height))
                trial = np.where(ok[:, None], cand, boxes)
                s = score_boxes(trial, ctx, params.kappa)
                better = s > scores + 1e-12
                boxes = np.where(better[:, None], trial, boxes)
                scores = np.where(better, s, scores)
                improved = improved or bool(better.any())
            if not improved:
                break
        step = np.maximum(1, step // 2)
    return boxes, scores


def nms(proposals: list[Proposal], beta: float) -> list[Proposal]:
    """Greedy non-maximum suppression: keep the highest-score box, drop any
    remaining box whose IoU with a kept box exceeds beta."""
    ranked = sorted(proposals, key=lambda p: (-p.score,) + p.box.as_tuple())
    rects = np.array([p.box.as_tuple() for p in ranked], dtype=np.float64)
    clash = iou_matrix(rects, rects) > beta
    suppressed = np.zeros(len(ranked), dtype=bool)
    kept: list[Proposal] = []
    for k, p in enumerate(ranked):
        if not suppressed[k]:
            kept.append(p)
            suppressed |= clash[k]
    return kept


def generate_proposals(edge_map, groups: list[EdgeGroup], params: ProposalParams,
                       frame_index: int = 0) -> list[Proposal]:
    """Ranked proposals: enumerate sliding windows, score, refine the best
    pool locally, suppress near-duplicates and truncate."""
    ctx = ScoreContext(edge_map, groups, params.magnitude_threshold)
    cand = _enumerate_candidates(ctx.width, ctx.height, params)
    if cand.shape[0] == 0:
        return []
    scores = score_boxes(cand, ctx, params.kappa)
    pool = min(len(scores), 4 * params.max_proposals)
    order = np.lexsort((cand[:, 3], cand[:, 2], cand[:, 1], cand[:, 0], -scores))[:pool]
    boxes, scores = _refine(cand[order], scores[order], ctx, params)

    # dedupe identical refined boxes, keep the best score for each
    uniq: dict[tuple, float] = {}
    for b, s in zip(boxes.tolist(), scores.tolist()):
        key = tuple(b)
        if key not in uniq or s > uniq[key]:
            uniq[key] = s
    proposals = [Proposal(Box(*key), sc, frame_index) for key, sc in uniq.items()
                 if sc > params.min_score]
    proposals = nms(proposals, params.nms_beta)
    proposals.sort(key=lambda p: (-p.score,) + p.box.as_tuple())
    return proposals[:params.max_proposals]
