"""Box scoring on grouped edge content and sliding-window proposal generation.

A box scores like an EdgeBoxes window (Zitnick & Dollar, ECCV 2014): the mass
of the edge groups wholly inside its interior, less the edge mass of its
central half, over its perimeter to the power KAPPA. The stream scores on
the thinned combined map (``edges.thin_edges``): a group's mass is that of its
one-pixel ridge, so a box that fits an object's boundary need not take in the
band that smoothing spreads around it. The windows of a frame size form a
``WindowLayout``, cached per size, whose shapes fall into runs: consecutive
shapes with at most RUN_CELLS difference-array cells between them, or one
larger shape alone. Each run is scored in one batched pass and only a
running pool of the best windows is kept between runs, so memory follows a
run's size, not the frame's window count. The pool is exactly the best pool
over all windows: it is ranked by (-score, x, y, w, h), a total order
because no two windows share a box, and every score has the bits a
whole-layout pass gives it, since each difference-array cell receives its
terms in the same (corner kind, group) order in any run. The pool is then
refined by a local search whose box scores test containment by table lookup
(``ScoreContext``).

A w-wide window shape with step s sits at every multiple of s up to
last = width - w and then at last itself: window i at min(i * s, last), and
clip(ceil(q / s), 0, last // s + 1) + (last % s != 0 and last < q) windows
left of q. Rows follow the same rule with the height.
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
RUN_CELLS = 2 ** 15  # difference-array cells (512 kB, numerator and count) per scoring run


class ScoreContext:
    """Per-frame scoring structures: thresholded-magnitude integral image plus
    group bounding boxes and masses.

    It also holds four bool tables over the frame's coordinates, one row per
    value v in 0..width + 1 (or height + 1) and one column per group:
    ``x0_from[v]`` is gx0 >= v, ``y0_from[v]`` is gy0 >= v, ``x1_to[v]`` is
    gx1 <= v and ``y1_to[v]`` is gy1 <= v, on the half-open group bounds.
    """

    def __init__(self, edge_map, groups: list[EdgeGroup],
                 magnitude_threshold: float = EDGE_THRESHOLD):
        E = as_field(edge_map)
        self.height, self.width = E.shape
        # float32; the integral image sums it in float64
        self.mass_field = np.where(E >= magnitude_threshold, E, np.float32(0))
        self.integral = IntegralImage(self.mass_field)
        # x0, y0, x1, y1 half-open
        self.group_bounds = np.array([(g.bbox.x, g.bbox.y, g.bbox.x2, g.bbox.y2)
                                      for g in groups], dtype=np.int32).reshape(-1, 4)
        self.group_mass = np.array([g.magnitude for g in groups], dtype=np.float64)
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

    It is built from one (w, h, xs, ys, step_x, step_y) per shape, as
    ``_window_grids`` gives them; ``grids`` keeps each (w, h, xs, ys),
    ``sx`` and ``sy`` the steps, and ``denom`` the score's normaliser per
    shape. With last = width - ws[s], shape s has its windows at
    xs[i] = min(i * sx[s], last), so ``_positions_below`` counts
    clip(ceil(q / sx[s]), 0, last // sx[s] + 1) + (last % sx[s] != 0 and
    last < q) of them left of q, without a search; ys likewise. Window
    (xs[i], ys[j]) of shape s is the flat score index
    ``window_start[s] + j * nx[s] + i``, and its difference-array cells start
    at ``cell_start[s]``. ``runs`` holds the (s0, s1) shape ranges that
    ``generate_proposals`` scores one at a time: consecutive shapes with at
    most RUN_CELLS cells, or one larger shape alone. Its arrays are
    read-only: one cached layout serves every frame of its size.
    """

    def __init__(self, grids, width: int, height: int):
        self.grids = tuple((int(w), int(h), np.array(xs, dtype=np.int64),
                            np.array(ys, dtype=np.int64))
                           for w, h, xs, ys, _, _ in grids)
        self.width, self.height = width, height
        self.ws, self.hs, self.sx, self.sy, self.nx, self.ny = np.array(
            [(w, h, sx, sy, len(xs), len(ys)) for w, h, xs, ys, sx, sy in grids],
            dtype=np.int64).reshape(-1, 6).T

        def starts(counts):
            return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.window_start = starts(self.nx * self.ny)
        self.cell_start = starts((self.nx + 1) * (self.ny + 1))
        # one array power per shape, like score_boxes': numpy's vector pow
        # may differ from the scalar one in the last bit
        self.denom = np.array([((2.0 * np.array([w + h])) ** KAPPA)[0]
                               for w, h, _, _ in self.grids])
        runs, s0 = [], 0
        for s in range(1, len(self.grids) + 1):
            if (s == len(self.grids)
                    or self.cell_start[s + 1] - self.cell_start[s0] > RUN_CELLS):
                runs.append((s0, s))
                s0 = s
        self.runs = tuple(runs)
        for a in (self.ws, self.hs, self.sx, self.sy, self.nx, self.ny,
                  self.window_start, self.cell_start, self.denom,
                  *(c for g in self.grids for c in g[2:])):
            a.flags.writeable = False

    def boxes(self, flat: np.ndarray) -> np.ndarray:
        """(n, 4) int64 (x, y, w, h) rows of the windows at flat score indices."""
        s = np.searchsorted(self.window_start, flat, side="right") - 1
        j, i = np.divmod(flat - self.window_start[s], self.nx[s])
        x = np.minimum(i * self.sx[s], self.width - self.ws[s])
        y = np.minimum(j * self.sy[s], self.height - self.hs[s])
        return np.stack([x, y, self.ws[s], self.hs[s]], axis=1)


def _positions_below(q, step, last):
    """How many of the positions 0, step, 2 * step, ... up to ``last``, then
    ``last`` itself, lie below q; the arguments broadcast."""
    multiples = np.clip((q + step - 1) // step, 0, last // step + 1)
    return multiples + ((last % step != 0) & (last < q))


def _difference_cells(layout: WindowLayout, ctx: ScoreContext,
                      s0: int, s1: int) -> np.ndarray:
    """The ragged difference array of shapes s0 to s1 of ``layout``, as
    (cells, 2): each cell's numerator and coverage count side by side, from
    shape s0's first cell on."""
    gx0, gy0, gx1, gy1 = ctx.group_bounds.T.astype(np.int64)
    w, h = layout.ws[s0:s1, None], layout.hs[s0:s1, None]
    x = (layout.sx[s0:s1, None], layout.width - w)
    y = (layout.sy[s0:s1, None], layout.height - h)
    i0, i1 = _positions_below(gx1 - w + 1, *x), _positions_below(gx0, *x)
    j0, j1 = _positions_below(gy1 - h + 1, *y), _positions_below(gy0, *y)
    hit = (i0 < i1) & (j0 < j1)
    shape, group = np.nonzero(hit)       # shape-major, groups in order
    i0, i1, j0, j1 = i0[hit], i1[hit], j0[hit], j1[hit]
    row = layout.nx[s0 + shape] + 1
    base = layout.cell_start[s0 + shape] - layout.cell_start[s0]
    corners = np.concatenate([base + j0 * row + i0, base + j0 * row + i1,
                              base + j1 * row + i0, base + j1 * row + i1])
    mass = ctx.group_mass[group]
    cells = np.empty((layout.cell_start[s1] - layout.cell_start[s0], 2))
    cells[:, 0] = np.bincount(corners, np.concatenate([mass, -mass, -mass, mass]),
                              len(cells))
    cells[:, 1] = np.bincount(corners, np.repeat([1.0, -1.0, -1.0, 1.0], len(mass)),
                              len(cells))
    return cells


def score_grid(layout, ctx: ScoreContext, s0: int = 0,
               s1: int | None = None) -> np.ndarray:
    """Scores of every window of shapes s0 to s1 (default: all) of
    ``layout``, a ``WindowLayout`` of the frame's size, as one flat vector:
    shape by shape, each row-major over (ys, xs), so that it is the slice
    ``window_start[s0]:window_start[s1]`` of the whole layout's vector.
    Equal to score_boxes up to the summation order of the numerator.

    A group lies in the interior of the w x h box at (a, b) exactly when
    x1 - w + 1 <= a <= x0 - 1 and y1 - h + 1 <= b <= y0 - 1, so it adds its
    mass to one rectangle of grid indices per shape. Counting the positions
    below each bound finds those rectangles for all the range's shapes and
    groups at once, by arithmetic on the shapes' steps; their corners go
    into one ragged difference array, holding numerator and coverage count
    interleaved, with one bincount pair, and a 2-D cumulative sum per shape
    gives every numerator in O(shapes * G + windows). Each cell receives its
    terms in the order a per-shape difference array would (corner kind, then
    group), so the scores are bitwise those of scoring each shape on its own,
    whatever range they are scored in.
    """
    s1 = len(layout.grids) if s1 is None else s1
    cells = _difference_cells(layout, ctx, s0, s1)
    cell = layout.cell_start[s0:s1 + 1] - layout.cell_start[s0]
    window = layout.window_start[s0:s1 + 1] - layout.window_start[s0]
    scores = np.empty(window[-1])
    for k, (w, h, xs, ys) in enumerate(layout.grids[s0:s1]):
        nx, ny = len(xs), len(ys)
        acc = (cells[cell[k]:cell[k + 1]]
               .reshape(ny + 1, nx + 1, 2).cumsum(axis=0).cumsum(axis=1)[:ny, :nx])
        # the +m/-m corners can leave a rounding residue where no group lies;
        # such boxes have a numerator of exactly 0, as in score_boxes
        numer = np.where(acc[..., 1] > 0, acc[..., 0], 0.0)
        x, y = xs[None, :], ys[:, None]
        mx, my = w // 4, h // 4
        center = ctx.integral.rect_sums(x + mx, y + my, x + w - mx, y + h - my)
        scores[window[k]:window[k + 1]] = np.maximum(
            0.0, (numer - center) / layout.denom[s0 + k]).ravel()
    return scores


def _window_grids(width: int, height: int, min_area: float, step_iou: float,
                  max_aspect: float = MAX_ASPECT
                  ) -> list[tuple[int, int, np.ndarray, np.ndarray, int, int]]:
    """Sliding windows over geometric scale/aspect grids whose neighbors
    overlap at roughly step_iou: one (w, h, xs, ys, step_x, step_y) per
    distinct shape, xs the multiples of step_x up to width - w and then
    width - w itself, and ys likewise."""
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
             np.union1d(np.arange(0, height - h + 1, sy), [height - h]), sx, sy)
            for w, h, sx, sy in zip(ws.tolist(), hs.tolist(),
                                    steps_x.tolist(), steps_y.tolist())]


@lru_cache(maxsize=4)
def _window_layout(width: int, height: int, min_area: float) -> WindowLayout:
    """The cached window layout of one frame size and least window area."""
    return WindowLayout(_window_grids(width, height, min_area, STEP_IOU), width, height)


def _refine(boxes: np.ndarray, scores: np.ndarray,
            ctx: ScoreContext) -> tuple[np.ndarray, np.ndarray]:
    """Greedy local search: try +-step moves of each coordinate, x, y, w and
    h in turn, in two passes over the moves per round, halving the step each
    round.

    Every box is a valid window, and stays one, so a move can cross only one
    bound: +x and +w the right frame edge, -x the left one, -w the least
    width 4, and y, h likewise."""
    boxes = boxes.copy()
    scores = scores.copy()
    w0 = np.maximum(boxes[:, 2], boxes[:, 3])
    delta = STEP_IOU
    step = np.maximum(1, (w0 * (1.0 - delta) / (1.0 + delta) / 2).astype(np.int64))
    for _ in range(REFINE_STEPS):
        for _pass in range(2):
            for c, size in [(0, ctx.width), (1, ctx.height),
                            (2, ctx.width), (3, ctx.height)]:
                for sign in (1, -1):
                    moved = boxes[:, c] + sign * step
                    ok = (moved + boxes[:, c ^ 2] <= size if sign > 0
                          else moved >= (0 if c < 2 else 4))
                    trial = boxes.copy()
                    trial[ok, c] = moved[ok]
                    s = score_boxes(trial, ctx)
                    better = s > scores + 1e-12
                    boxes[better, c] = trial[better, c]
                    scores = np.where(better, s, scores)
        step = np.maximum(1, step // 2)
    return boxes, scores


def nms(proposals: list[Proposal], beta: float) -> list[Proposal]:
    """Greedy non-maximum suppression: keep the highest-score box, drop any
    remaining box whose IoU with a kept box exceeds beta."""
    ranked = sorted(proposals, key=lambda p: (-p.score,) + p.box.as_tuple())
    return [ranked[k] for k in greedy_keep([p.box.as_tuple() for p in ranked], beta)]


def _best_windows(layout: WindowLayout, ctx: ScoreContext,
                  pool: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``pool`` windows of ``layout`` by (-score, x, y, w, h), as
    (n, 4) int64 boxes and their scores in that order.

    The runs are scored one at a time, and between runs only the pool so
    far is kept. No two windows share a box, so the key is a total order and
    the first ``pool`` of all windows are the first ``pool`` of the runs'
    own first ``pool``s, however many windows tie on their score. Only a
    run's windows scoring at least both the full pool's last score and the
    run's pool-th best can enter the pool; only those are decoded to boxes."""
    boxes, scores = np.empty((0, 4), dtype=np.int64), np.empty(0)
    for s0, s1 in layout.runs:
        run = score_grid(layout, ctx, s0, s1)
        top = np.flatnonzero(run >= (scores[-1] if len(scores) == pool else -np.inf))
        if len(top) > pool:
            k = len(top) - pool
            top = top[run[top] >= np.partition(run[top], k)[k]]
        boxes = np.concatenate([boxes, layout.boxes(layout.window_start[s0] + top)])
        scores = np.concatenate([scores, run[top]])
        order = np.lexsort((boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0],
                            -scores))[:pool]
        boxes, scores = boxes[order], scores[order]
    return boxes, scores


def generate_proposals(edge_map, groups: list[EdgeGroup], config: PipelineConfig,
                       frame_index: int = 0) -> list[Proposal]:
    """Ranked proposals: enumerate sliding windows, score them run by run
    keeping the best pool, refine the pool locally, suppress near-duplicates
    and truncate.

    The windows of a frame size come from ``_window_layout``, which builds
    them at the first frame of that size and keeps the last few sizes.
    ``_best_windows`` scores one run of shapes at a time and keeps only the
    4 * max_proposals best windows between runs, so its memory follows a
    run's size, not the frame's window count; by the total order of its key
    and the per-cell term order of ``score_grid``, its pool is exactly that
    of ranking every window at once. Refinement can move several windows
    onto one box; ``nms`` keeps the best-scoring of them, since coincident
    boxes overlap at IoU 1 > PRE_NMS_BETA.
    """
    ctx = ScoreContext(edge_map, groups)
    layout = _window_layout(ctx.width, ctx.height, config.min_box_area)
    if not layout.grids:
        return []
    pool = min(layout.window_start[-1], 4 * config.max_proposals)
    boxes, scores = _refine(*_best_windows(layout, ctx, pool), ctx)
    proposals = [Proposal(Box(*b), s, frame_index)
                 for b, s in zip(boxes.tolist(), scores.tolist()) if s > MIN_SCORE]
    # nms returns its kept proposals ranked by (-score, x, y, w, h)
    return nms(proposals, PRE_NMS_BETA)[:config.max_proposals]
