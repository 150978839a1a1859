"""Box scoring on grouped edge content and sliding-window proposal generation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import PipelineConfig
from .core import Box, IntegralImage, as_field, greedy_keep
from .edges import EDGE_THRESHOLD, EdgeGroup


@dataclass
class Proposal:
    box: Box
    score: float
    frame_index: int = 0


# EdgeBoxes settings
MAX_ASPECT = 3.0
REFINE_STEPS = 2     # local refinement rounds (halving step size)
MIN_SCORE = 1e-9     # boxes without enclosed edge content are dropped
KAPPA = 1.5          # perimeter exponent of the box score's normaliser
STEP_IOU = 0.65      # IoU of neighbouring windows (EdgeBoxes' alpha)
PRE_NMS_BETA = 0.9   # IoU above which a lower-scoring proposal is dropped


class ScoreContext:
    """Per-frame scoring structures: thresholded-magnitude integral image plus
    group bounding boxes, masses and pixel lists."""

    def __init__(self, edge_map, groups: list[EdgeGroup],
                 magnitude_threshold: float = EDGE_THRESHOLD):
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


def score_box_bruteforce(box: Box, ctx: ScoreContext) -> float:
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
    denom = (2.0 * (box.w + box.h)) ** KAPPA
    return max(0.0, (numerator - center) / denom)


def score_boxes(boxes: np.ndarray, ctx: ScoreContext) -> np.ndarray:
    """Vectorized scoring of an (n, 4) array of (x, y, w, h) boxes."""
    boxes = np.asarray(boxes, dtype=np.int64).reshape(-1, 4)
    x, y, w, h = boxes[:, 0], boxes[:, 1], boxes[:, 2], boxes[:, 3]
    ix0, iy0 = x + 1, y + 1
    ix1, iy1 = x + w - 1, y + h - 1
    gb = ctx.group_bounds
    contained = ((gb[None, :, 0] >= ix0[:, None]) & (gb[None, :, 1] >= iy0[:, None])
                 & (gb[None, :, 2] <= ix1[:, None]) & (gb[None, :, 3] <= iy1[:, None]))
    numer = np.where((ix1 > ix0) & (iy1 > iy0), contained @ ctx.group_mass, 0.0)
    mx, my = w // 4, h // 4
    center = ctx.integral.rect_sums(x + mx, y + my, x + w - mx, y + h - my)
    denom = (2.0 * (w + h)) ** KAPPA
    return np.maximum(0.0, (numer - center) / denom)


def score_grid(w: int, h: int, xs: np.ndarray, ys: np.ndarray,
               ctx: ScoreContext) -> np.ndarray:
    """Scores of every w x h box with top-left corner in xs x ys (both sorted
    and distinct), as a (len(ys), len(xs)) array; equal to score_boxes up to
    the summation order of the numerator.

    A group lies in the interior of the box at (a, b) exactly when
    x1 - w + 1 <= a <= x0 - 1 and y1 - h + 1 <= b <= y0 - 1, so it adds its
    mass to one rectangle of grid indices. The rectangles' corners go into a
    difference array with one bincount, and a 2-D cumulative sum gives every
    numerator in O(G + windows).
    """
    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    nx, ny = len(xs), len(ys)
    gx0, gy0, gx1, gy1 = ctx.group_bounds.T.astype(np.int64)
    i0 = np.searchsorted(xs, gx1 - w + 1, side="left")
    i1 = np.searchsorted(xs, gx0 - 1, side="right")
    j0 = np.searchsorted(ys, gy1 - h + 1, side="left")
    j1 = np.searchsorted(ys, gy0 - 1, side="right")
    hit = (i0 < i1) & (j0 < j1)
    i0, i1, j0, j1, mass = i0[hit], i1[hit], j0[hit], j1[hit], ctx.group_mass[hit]
    corners = np.concatenate([j0 * (nx + 1) + i0, j0 * (nx + 1) + i1,
                              j1 * (nx + 1) + i0, j1 * (nx + 1) + i1])
    signs = np.repeat([1.0, -1.0, -1.0, 1.0], len(mass))
    size = (ny + 1) * (nx + 1)
    numer = np.bincount(corners, signs * np.tile(mass, 4), size)
    covered = np.bincount(corners, signs, size)
    numer = numer.reshape(ny + 1, nx + 1).cumsum(axis=0).cumsum(axis=1)[:ny, :nx]
    covered = covered.reshape(ny + 1, nx + 1).cumsum(axis=0).cumsum(axis=1)[:ny, :nx]
    # the +m/-m corners can leave a rounding residue where no group lies;
    # such boxes have a numerator of exactly 0, as in score_boxes
    numer = np.where(covered > 0, numer, 0.0)
    x, y = xs[None, :], ys[:, None]
    mx, my = w // 4, h // 4
    center = ctx.integral.rect_sums(x + mx, y + my, x + w - mx, y + h - my)
    # an array power, like score_boxes': numpy's vector pow may differ from
    # the scalar one in the last bit
    denom = (2.0 * np.array([w + h])) ** KAPPA
    return np.maximum(0.0, (numer - center) / denom)


def _window_grids(width: int, height: int, min_area: float, step_iou: float,
                  max_aspect: float = MAX_ASPECT
                  ) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """Sliding windows over geometric scale/aspect grids whose neighbors
    overlap at roughly step_iou: one (w, h, xs, ys) per distinct shape, xs
    and ys sorted and including the last position width - w / height - h."""
    delta = step_iou
    area_step = 1.0 / delta
    aspect_step = ((1.0 + delta) / (2.0 * delta)) ** 2
    areas = []
    area = min_area
    while area <= float(width * height) + 1e-9:
        areas.append(area)
        area *= area_step
    n_aspects = int(np.floor(np.log(max_aspect) / np.log(aspect_step)))
    ratios = np.array([aspect_step ** k for k in range(-n_aspects, n_aspects + 1)])
    a = np.asarray(areas)[:, None]
    ws = np.rint(np.sqrt(a * ratios)).astype(np.int64).ravel()
    hs = np.rint(np.sqrt(a / ratios)).astype(np.int64).ravel()
    fits = (ws >= 4) & (hs >= 4) & (ws <= width) & (hs <= height)
    shapes = np.unique(np.stack([ws[fits], hs[fits]], axis=1), axis=0)
    ws, hs = shapes[:, 0], shapes[:, 1]
    steps_x = np.maximum(1, np.rint(ws * (1.0 - delta) / (1.0 + delta))).astype(np.int64)
    steps_y = np.maximum(1, np.rint(hs * (1.0 - delta) / (1.0 + delta))).astype(np.int64)
    return [(w, h, np.union1d(np.arange(0, width - w + 1, sx), [width - w]),
             np.union1d(np.arange(0, height - h + 1, sy), [height - h]))
            for w, h, sx, sy in zip(ws.tolist(), hs.tolist(),
                                    steps_x.tolist(), steps_y.tolist())]


def _refine(boxes: np.ndarray, scores: np.ndarray,
            ctx: ScoreContext) -> tuple[np.ndarray, np.ndarray]:
    """Greedy local search: try +-step moves of each corner coordinate,
    halving the step each round."""
    boxes = boxes.copy()
    scores = scores.copy()
    w0 = np.maximum(boxes[:, 2], boxes[:, 3])
    delta = STEP_IOU
    step = np.maximum(1, (w0 * (1.0 - delta) / (1.0 + delta) / 2).astype(np.int64))
    for _ in range(REFINE_STEPS):
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
                s = score_boxes(trial, ctx)
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
    return [ranked[k] for k in greedy_keep([p.box.as_tuple() for p in ranked], beta)]


def generate_proposals(edge_map, groups: list[EdgeGroup], config: PipelineConfig,
                       frame_index: int = 0) -> list[Proposal]:
    """Ranked proposals: enumerate sliding windows, score, refine the best
    pool locally, suppress near-duplicates and truncate."""
    ctx = ScoreContext(edge_map, groups)
    grids = _window_grids(ctx.width, ctx.height, config.min_box_area, STEP_IOU)
    if not grids:
        return []
    cand, scores = [], []
    for w, h, xs, ys in grids:
        yy, xx = np.meshgrid(ys, xs, indexing="ij")
        cand.append(np.stack([xx.ravel(), yy.ravel(),
                              np.full(xx.size, w), np.full(xx.size, h)], axis=1))
        scores.append(score_grid(w, h, xs, ys, ctx).ravel())
    cand = np.concatenate(cand)
    scores = np.concatenate(scores)
    # the pool is the first boxes by (-score, x, y, w, h); only boxes scoring
    # at least the pool-th best score can be among them
    pool = min(len(scores), 4 * config.max_proposals)
    top = np.flatnonzero(scores >= -np.partition(-scores, pool - 1)[pool - 1])
    b = cand[top]
    order = top[np.lexsort((b[:, 3], b[:, 2], b[:, 1], b[:, 0], -scores[top]))[:pool]]
    boxes, scores = _refine(cand[order], scores[order], ctx)

    # dedupe identical refined boxes, keep the best score for each
    uniq: dict[tuple, float] = {}
    for b, s in zip(boxes.tolist(), scores.tolist()):
        key = tuple(b)
        if key not in uniq or s > uniq[key]:
            uniq[key] = s
    proposals = [Proposal(Box(*key), sc, frame_index) for key, sc in uniq.items()
                 if sc > MIN_SCORE]
    proposals = nms(proposals, PRE_NMS_BETA)
    proposals.sort(key=lambda p: (-p.score,) + p.box.as_tuple())
    return proposals[:config.max_proposals]
