"""Box scoring on grouped edge content and sliding-window proposal generation.

A box scores like an EdgeBoxes window (Zitnick & Dollar, ECCV 2014): the mass
of the edge groups wholly inside its interior, less the edge mass of its
central half, over its perimeter to the power KAPPA. The stream scores on
the thinned combined map (``edges.thin_edges``): a group's mass is that of its
one-pixel ridge, so a box that fits an object's boundary need not take in the
band that smoothing spreads around it. Every window of a frame is scored in
one pass over a ``WindowLayout``, cached per frame size; the best pool is
refined by a local search whose box scores test containment by table lookup
(``ScoreContext``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    group bounding boxes, masses and pixel lists.

    It also holds four bool tables over the frame's coordinates, one row per
    value v in 0..width + 1 (or height + 1) and one column per group:
    ``x0_from[v]`` is gx0 >= v, ``y0_from[v]`` is gy0 >= v, ``x1_to[v]`` is
    gx1 <= v and ``y1_to[v]`` is gy1 <= v, on the half-open group bounds.
    """

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
        gx0, gy0, gx1, gy1 = self.group_bounds.T
        vx = np.arange(self.width + 2)[:, None]
        vy = np.arange(self.height + 2)[:, None]
        self.x0_from, self.x1_to = gx0 >= vx, gx1 <= vx
        self.y0_from, self.y1_to = gy0 >= vy, gy1 <= vy

    def contained(self, x0, y0, x1, y1) -> np.ndarray:
        """(n, groups) bool: whether each group lies in [x0, x1) x [y0, y1),
        for integer index arrays of length n. Four row gathers of the tables;
        clipping a coordinate to the tables' range keeps the answer exact for
        groups inside the frame, so any integer coordinate may be passed."""
        def rows(table, v):
            return np.take(table, v, axis=0, mode="clip")
        return (rows(self.x0_from, x0) & rows(self.y0_from, y0)
                & rows(self.x1_to, x1) & rows(self.y1_to, y1))

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
    # group boxes have positive extent: an empty interior contains none
    numer = ctx.contained(ix0, iy0, ix1, iy1) @ ctx.group_mass
    mx, my = w // 4, h // 4
    center = ctx.integral.rect_sums(x + mx, y + my, x + w - mx, y + h - my)
    denom = (2.0 * (w + h)) ** KAPPA
    return np.maximum(0.0, (numer - center) / denom)


class WindowLayout:
    """The sliding windows of one frame size, shape by shape, and what scoring
    them needs beyond the frame's content.

    ``grids`` holds one (w, h, xs, ys) per shape, as ``_window_grids`` gives
    them; ``denom`` the score's normaliser per shape. Window k of shape s is
    the flat score index ``window_start[s] + j * nx[s] + i`` for position
    (xs[i], ys[j]), and its difference-array cells start at ``cell_start[s]``.
    ``x_keys`` lists every shape's positions as s * (width + 3) + x + 1, so
    one sorted array answers position queries for all shapes at once (and
    ``y_keys`` likewise with height). Its arrays are read-only: one cached
    layout serves every frame of its size.
    """

    def __init__(self, grids, width: int, height: int):
        self.grids = tuple((int(w), int(h), np.array(xs, dtype=np.int64),
                            np.array(ys, dtype=np.int64)) for w, h, xs, ys in grids)
        self.width, self.height = width, height
        self.ws, self.hs, self.nx, self.ny = np.array(
            [(w, h, len(xs), len(ys)) for w, h, xs, ys in self.grids],
            dtype=np.int64).reshape(-1, 4).T

        def starts(counts):
            return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

        def keys(coords, size):
            return np.concatenate([np.zeros(0, np.int64)]
                                  + [s * (size + 3) + c + 1
                                     for s, c in enumerate(coords)])
        self.x_start, self.y_start = starts(self.nx), starts(self.ny)
        self.window_start = starts(self.nx * self.ny)
        self.cell_start = starts((self.nx + 1) * (self.ny + 1))
        self.x_keys = keys([g[2] for g in self.grids], width)
        self.y_keys = keys([g[3] for g in self.grids], height)
        # one array power per shape, like score_boxes': numpy's vector pow
        # may differ from the scalar one in the last bit
        self.denom = np.array([((2.0 * np.array([w + h])) ** KAPPA)[0]
                               for w, h, _, _ in self.grids])
        for a in [self.ws, self.hs, self.nx, self.ny, self.x_start, self.y_start,
                  self.window_start, self.cell_start, self.x_keys, self.y_keys,
                  self.denom] + [c for g in self.grids for c in g[2:]]:
            a.flags.writeable = False

    def boxes(self, flat: np.ndarray) -> np.ndarray:
        """(n, 4) int64 (x, y, w, h) rows of the windows at flat score indices."""
        s = np.searchsorted(self.window_start, flat, side="right") - 1
        j, i = np.divmod(flat - self.window_start[s], self.nx[s])
        x = self.x_keys[self.x_start[s] + i] - s * (self.width + 3) - 1
        y = self.y_keys[self.y_start[s] + j] - s * (self.height + 3) - 1
        return np.stack([x, y, self.ws[s], self.hs[s]], axis=1)


def _position_counts(keys, start, size, q, side):
    """Per shape s (rows), how many of its positions are < q (side "left")
    or <= q (side "right"), from one searchsorted over the keyed positions
    of all shapes. Clipping q to [-1, size + 1] keeps each count exact and
    each key inside shape s's stretch of keys."""
    s = np.arange(len(start) - 1)[:, None]
    keyed = s * (size + 3) + np.clip(q, -1, size + 1) + 1
    return np.searchsorted(keys, keyed, side=side) - start[:-1, None]


def _difference_cells(layout: WindowLayout, ctx: ScoreContext) -> np.ndarray:
    """The ragged difference array of every shape of ``layout``, as
    (cells, 2): each cell's numerator and coverage count side by side."""
    gx0, gy0, gx1, gy1 = ctx.group_bounds.T.astype(np.int64)
    x = (layout.x_keys, layout.x_start, layout.width)
    y = (layout.y_keys, layout.y_start, layout.height)
    i0 = _position_counts(*x, gx1 - layout.ws[:, None] + 1, "left")
    i1 = _position_counts(*x, gx0 - 1, "right")
    j0 = _position_counts(*y, gy1 - layout.hs[:, None] + 1, "left")
    j1 = _position_counts(*y, gy0 - 1, "right")
    hit = (i0 < i1) & (j0 < j1)
    shape, group = np.nonzero(hit)       # shape-major, groups in order
    i0, i1, j0, j1 = i0[hit], i1[hit], j0[hit], j1[hit]
    row = layout.nx[shape] + 1
    base = layout.cell_start[shape]
    corners = np.concatenate([base + j0 * row + i0, base + j0 * row + i1,
                              base + j1 * row + i0, base + j1 * row + i1])
    mass = ctx.group_mass[group]
    cells = np.empty((layout.cell_start[-1], 2))
    cells[:, 0] = np.bincount(corners, np.concatenate([mass, -mass, -mass, mass]),
                              len(cells))
    cells[:, 1] = np.bincount(corners, np.repeat([1.0, -1.0, -1.0, 1.0], len(mass)),
                              len(cells))
    return cells


def score_grid(layout, ctx: ScoreContext) -> np.ndarray:
    """Scores of every window of ``layout``, a ``WindowLayout`` of the
    frame's size, as one flat vector: shape by shape, each row-major over
    (ys, xs). Equal to score_boxes up to the summation order of the numerator.

    A group lies in the interior of the w x h box at (a, b) exactly when
    x1 - w + 1 <= a <= x0 - 1 and y1 - h + 1 <= b <= y0 - 1, so it adds its
    mass to one rectangle of grid indices per shape. One searchsorted per
    bound finds those rectangles for all shapes and groups; their corners go
    into one ragged difference array, holding numerator and coverage count
    interleaved, with one bincount pair, and a 2-D cumulative sum per shape
    gives every numerator in O(shapes * G + windows). Each cell receives its
    terms in the order a per-shape difference array would (corner kind, then
    group), so the scores are bitwise those of scoring each shape on its own.
    """
    cells = _difference_cells(layout, ctx)
    scores = np.empty(layout.window_start[-1])
    for s, (w, h, xs, ys) in enumerate(layout.grids):
        nx, ny = len(xs), len(ys)
        acc = (cells[layout.cell_start[s]:layout.cell_start[s + 1]]
               .reshape(ny + 1, nx + 1, 2).cumsum(axis=0).cumsum(axis=1)[:ny, :nx])
        # the +m/-m corners can leave a rounding residue where no group lies;
        # such boxes have a numerator of exactly 0, as in score_boxes
        numer = np.where(acc[..., 1] > 0, acc[..., 0], 0.0)
        x, y = xs[None, :], ys[:, None]
        mx, my = w // 4, h // 4
        center = ctx.integral.rect_sums(x + mx, y + my, x + w - mx, y + h - my)
        scores[layout.window_start[s]:layout.window_start[s + 1]] = np.maximum(
            0.0, (numer - center) / layout.denom[s]).ravel()
    return scores


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


@lru_cache(maxsize=4)
def _window_layout(width: int, height: int, min_area: float) -> WindowLayout:
    """The cached window layout of one frame size and least window area."""
    return WindowLayout(_window_grids(width, height, min_area, STEP_IOU), width, height)


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
    pool locally, suppress near-duplicates and truncate.

    The windows of a frame size come from ``_window_layout``, which builds
    them at the first frame of that size and keeps the last few sizes; only
    the pool's windows are decoded to boxes. Refinement can move several
    windows onto one box; ``nms`` keeps the best-scoring of them, since
    coincident boxes overlap at IoU 1 > PRE_NMS_BETA.
    """
    ctx = ScoreContext(edge_map, groups)
    layout = _window_layout(ctx.width, ctx.height, config.min_box_area)
    if not layout.grids:
        return []
    scores = score_grid(layout, ctx)
    # the pool is the first boxes by (-score, x, y, w, h); only boxes scoring
    # at least the pool-th best score can be among them
    pool = min(len(scores), 4 * config.max_proposals)
    top = np.flatnonzero(scores >= -np.partition(-scores, pool - 1)[pool - 1])
    b = layout.boxes(top)
    order = np.lexsort((b[:, 3], b[:, 2], b[:, 1], b[:, 0], -scores[top]))[:pool]
    boxes, scores = _refine(b[order], scores[top[order]], ctx)
    proposals = [Proposal(Box(*b), s, frame_index)
                 for b, s in zip(boxes.tolist(), scores.tolist()) if s > MIN_SCORE]
    # nms returns its kept proposals ranked by (-score, x, y, w, h)
    return nms(proposals, PRE_NMS_BETA)[:config.max_proposals]
