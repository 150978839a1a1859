import runpy
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import streamdet.propagation
import streamdet.proposals
from streamdet.config import PipelineConfig
from streamdet.core import Box, iou
from streamdet.edges import EdgeGroup, edge_groups
from streamdet.proposals import (KAPPA, MAX_ASPECT, MIN_SCORE, PRE_NMS_BETA,
                                 STEP_IOU, Proposal, ScoreContext, WindowLayout,
                                 _best_windows, _positions_below, _refine,
                                 _window_grids, _window_layout,
                                 generate_proposals, nms, score_boxes,
                                 score_grid)
from streamdet.synth import render

SCENES = Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"
# 1.2x the 11.5 MB tracemalloc peak of generate_proposals on the first
# large-cli frame, measured with this test run alone (in a full suite, where
# earlier tests have warmed numpy, it reads 10.3 MB); scoring every window
# in one vector peaked at 22.0 MB there, and scoring each shape on its own
# with a per-window candidate array at 25.9 MB
PEAK_BOUND_MB = 13.8


def score_box_bruteforce(box: Box, ctx: ScoreContext) -> float:
    """Reference scorer: a direct per-group containment scan of the box's
    interior (the box less its 1 px straddle band) plus a direct pixel sum
    over its centred half-width, half-height window for the clutter penalty.
    Must agree with score_boxes."""
    if box.x < 0 or box.y < 0 or box.x2 > ctx.width or box.y2 > ctx.height:
        raise ValueError(f"box {box} outside {ctx.width}x{ctx.height} frame")
    ix0, iy0, ix1, iy1 = box.x + 1, box.y + 1, box.x2 - 1, box.y2 - 1
    numerator = 0.0
    for (gx0, gy0, gx1, gy1), mass in zip(ctx.group_bounds.tolist(),
                                          ctx.group_mass.tolist()):
        if gx0 >= ix0 and gy0 >= iy0 and gx1 <= ix1 and gy1 <= iy1:
            numerator += mass
    mx, my = box.w // 4, box.h // 4
    center = ctx.mass_field[box.y + my:box.y2 - my, box.x + mx:box.x2 - mx].sum(
        dtype=np.float64)
    denom = (2.0 * (box.w + box.h)) ** KAPPA
    return max(0.0, (numerator - float(center)) / denom)


def _random_scene(rng, size=64, density=0.85, thr=0.1, height=None):
    shape = (height or size, size)
    E = (rng.random(shape) * (rng.random(shape) > density))
    E = E.astype(np.float32)
    O = (rng.random(shape) * np.pi).astype(np.float32)
    groups = edge_groups(E, O, thr)
    return ScoreContext(E, groups, thr)


def _score_grid_per_shape(w, h, xs, ys, ctx):
    """The scorer of one window shape, one difference array per shape: the
    reference the flat score_grid must equal bit for bit."""
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
    numer = np.where(covered > 0, numer, 0.0)
    x, y = xs[None, :], ys[:, None]
    mx, my = w // 4, h // 4
    center = ctx.integral.rect_sums(x + mx, y + my, x + w - mx, y + h - my)
    denom = (2.0 * np.array([w + h])) ** KAPPA
    return np.maximum(0.0, (numer - center) / denom)


def _square_scene(size=64, lo=20, hi=43, thr=0.1):
    E = np.zeros((size, size), dtype=np.float32)
    E[lo, lo:hi + 1] = 1.0
    E[hi, lo:hi + 1] = 1.0
    E[lo:hi + 1, lo] = 1.0
    E[lo:hi + 1, hi] = 1.0
    O = np.zeros((size, size), dtype=np.float32)
    O[lo, :] = np.pi / 2
    O[hi, :] = np.pi / 2
    groups = edge_groups(E, O, thr)
    return E, ScoreContext(E, groups, thr)


def test_score_empty_map_is_zero():
    ctx = ScoreContext(np.zeros((32, 32), dtype=np.float32), [], 0.1)
    assert score_boxes([(4, 4, 16, 16)], ctx)[0] == 0.0


def test_score_out_of_bounds():
    ctx = ScoreContext(np.zeros((16, 16), dtype=np.float32), [], 0.1)
    with pytest.raises(ValueError):
        score_box_bruteforce(Box(10, 10, 10, 10), ctx)


def test_fast_score_matches_bruteforce_random():
    rng = np.random.default_rng(21)
    for _ in range(20):
        ctx = _random_scene(rng)
        boxes = []
        for _ in range(50):
            w = int(rng.integers(6, 60))
            h = int(rng.integers(6, 60))
            x = int(rng.integers(0, 64 - w + 1))
            y = int(rng.integers(0, 64 - h + 1))
            boxes.append((x, y, w, h))
        fast = score_boxes(np.asarray(boxes), ctx)
        for b, f in zip(boxes, fast):
            brute = score_box_bruteforce(Box(*b), ctx)
            assert f == pytest.approx(brute, rel=1e-6, abs=1e-12)


def test_tight_box_beats_straddling_box():
    _, ctx = _square_scene()
    tight = Box(17, 17, 30, 30)       # contour groups wholly inside
    straddle = Box(30, 17, 30, 30)    # cuts through the square
    fast = score_boxes([tight.as_tuple(), straddle.as_tuple()], ctx)
    assert fast[0] > fast[1]
    assert score_box_bruteforce(tight, ctx) > score_box_bruteforce(straddle, ctx)


def test_score_linear_in_magnitudes():
    E, _ = _square_scene()
    from streamdet.edges import edge_groups as eg
    O = np.zeros_like(E)
    O[20, :] = np.pi / 2
    O[43, :] = np.pi / 2
    g1 = eg(E, O, 0.1)
    g2 = eg(2.0 * E, O, 0.1)
    c1 = ScoreContext(E, g1, 0.1)
    c2 = ScoreContext(2.0 * E, g2, 0.1)
    b = Box(17, 17, 30, 30)
    s1 = score_boxes([b.as_tuple()], c1)[0]
    s2 = score_boxes([b.as_tuple()], c2)[0]
    assert s1 > 0
    assert s2 == pytest.approx(2.0 * s1, rel=1e-9)


def test_nms_single_proposal():
    p = [Proposal(Box(0, 0, 10, 10), 0.5)]
    assert nms(p, 0.5) == p


def test_nms_identical_boxes():
    p = [Proposal(Box(5, 5, 10, 10), 0.9), Proposal(Box(5, 5, 10, 10), 0.8)]
    kept = nms(p, 0.5)
    assert len(kept) == 1 and kept[0].score == 0.9


def test_nms_postcondition_random():
    rng = np.random.default_rng(30)
    beta = 0.4
    props = []
    for _ in range(120):
        w = int(rng.integers(4, 20))
        h = int(rng.integers(4, 20))
        x = int(rng.integers(0, 40))
        y = int(rng.integers(0, 40))
        props.append(Proposal(Box(x, y, w, h), float(rng.random())))
    kept = nms(props, beta)
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            assert iou(kept[i].box, kept[j].box) <= beta


def test_generate_on_blank_map():
    config = PipelineConfig(max_proposals=10, min_box_area=100.0)
    out = generate_proposals(np.zeros((48, 48), dtype=np.float32), [], config)
    assert len(out) <= 10


def test_generate_finds_square_object():
    E, ctx = _square_scene(64, 20, 43)
    O = np.zeros_like(E)
    O[20, :] = np.pi / 2
    O[43, :] = np.pi / 2
    groups = edge_groups(E, O, 0.1)
    config = PipelineConfig(max_proposals=50, min_box_area=144.0)
    props = generate_proposals(E, groups, config, frame_index=3)
    assert props
    assert all(p.frame_index == 3 for p in props)
    target = Box(20, 20, 24, 24)
    assert iou(props[0].box, target) >= 0.7


def test_generate_truncates_and_sorts():
    rng = np.random.default_rng(31)
    E = (rng.random((48, 48)) * (rng.random((48, 48)) > 0.6)).astype(np.float32)
    O = (rng.random((48, 48)) * np.pi).astype(np.float32)
    groups = edge_groups(E, O, 0.1)
    config = PipelineConfig(max_proposals=15, min_box_area=100.0)
    props = generate_proposals(E, groups, config)
    assert len(props) <= 15
    scores = [p.score for p in props]
    assert scores == sorted(scores, reverse=True)


def test_generate_deterministic():
    rng = np.random.default_rng(32)
    E = (rng.random((48, 48)) * (rng.random((48, 48)) > 0.6)).astype(np.float32)
    O = (rng.random((48, 48)) * np.pi).astype(np.float32)
    groups = edge_groups(E, O, 0.1)
    config = PipelineConfig(max_proposals=20, min_box_area=100.0)
    a = generate_proposals(E, groups, config)
    b = generate_proposals(E, groups, config)
    assert [(p.box.as_tuple(), p.score) for p in a] == \
           [(p.box.as_tuple(), p.score) for p in b]


def test_nms_matches_greedy_iou_loop_with_tied_scores():
    rng = np.random.default_rng(31)
    for beta in (0.3, 0.5, 0.75):
        props = []
        for _ in range(150):
            w = int(rng.integers(4, 20))
            h = int(rng.integers(4, 20))
            x = int(rng.integers(0, 40))
            y = int(rng.integers(0, 40))
            props.append(Proposal(Box(x, y, w, h), float(rng.integers(0, 4)) / 4))
        ranked = sorted(props, key=lambda p: (-p.score,) + p.box.as_tuple())
        expected = []
        for p in ranked:
            if all(iou(p.box, q.box) <= beta for q in expected):
                expected.append(p)
        kept = nms(props, beta)
        assert [id(p) for p in kept] == [id(p) for p in expected]


def test_score_grid_matches_bruteforce():
    rng = np.random.default_rng(41)
    size = 48
    for _ in range(6):
        ctx = _random_scene(rng, size=size)
        gb = ctx.group_bounds
        assert ((gb[:, :2] == 0) | (gb[:, 2:] == size)).any()   # groups on the border
        layout = WindowLayout(_window_grids(size, size, 150.0, 0.5), size, size)
        flat = score_grid(layout, ctx)
        for s, (w, h, xs, ys) in enumerate(layout.grids):
            assert xs[-1] == size - w and ys[-1] == size - h
            grid = flat[layout.window_start[s]:layout.window_start[s + 1]].reshape(
                len(ys), len(xs))
            assert grid.shape == (len(ys), len(xs))
            for j, y in enumerate(ys.tolist()):
                for i, x in enumerate(xs.tolist()):
                    brute = score_box_bruteforce(Box(x, y, w, h), ctx)
                    assert grid[j, i] == pytest.approx(brute, rel=1e-6, abs=1e-12)


def test_score_grid_is_exactly_zero_where_no_group_lies():
    # masses 0.1 and 0.2 leave 0.1 + 0.2 - 0.1 - 0.2 = 5.6e-17 in a running
    # sum; boxes right of both groups must still score exactly 0, as they do
    # in score_boxes, so that empty boxes rank by position alone
    def group(x, mass):
        return EdgeGroup(np.zeros((0, 2), np.int32), mass, Box(x, 3, 2, 2))
    ctx = ScoreContext(np.zeros((12, 40), dtype=np.float32),
                       [group(2, 0.1), group(5, 0.2)], 0.1)
    xs, ys = np.arange(31), np.arange(3)
    layout = WindowLayout([(10, 10, xs, ys, 1, 1)], 40, 12)
    grid = score_grid(layout, ctx).reshape(len(ys), len(xs))
    boxes = [(x, y, 10, 10) for y in ys.tolist() for x in xs.tolist()]
    assert grid.ravel() == pytest.approx(score_boxes(boxes, ctx), rel=1e-12)
    assert (grid[:, 5:] == 0.0).all() and (grid[:, :5] > 0.0).all()


@pytest.mark.parametrize("width, height", [(48, 48), (96, 72), (128, 96)])
def test_flat_score_grid_equals_per_shape_reference(width, height):
    rng = np.random.default_rng(width * height)
    for _ in range(4):
        ctx = _random_scene(rng, width, height=height)
        gb = ctx.group_bounds
        assert ((gb[:, 0] == 0) | (gb[:, 1] == 0)
                | (gb[:, 2] == width) | (gb[:, 3] == height)).any()
        for min_area, step_iou in [(250.0, STEP_IOU), (150.0, 0.5)]:
            layout = WindowLayout(_window_grids(width, height, min_area, step_iou),
                                  width, height)
            flat = score_grid(layout, ctx)
            assert len(flat) == layout.window_start[-1]
            for s, (w, h, xs, ys) in enumerate(layout.grids):
                part = flat[layout.window_start[s]:layout.window_start[s + 1]]
                reference = _score_grid_per_shape(w, h, xs, ys, ctx).ravel()
                assert np.array_equal(part, reference)


def test_window_layout_is_cached_read_only_and_decodes_every_window():
    layout = _window_layout(96, 72, 250.0)
    assert _window_layout(96, 72, 250.0) is layout
    with pytest.raises(ValueError):
        layout.sx[0] = 0
    with pytest.raises(ValueError):
        layout.grids[0][2][0] = 1
    expected = [(x, y, w, h)
                for w, h, xs, ys, _, _ in _window_grids(96, 72, 250.0, STEP_IOU)
                for y in ys.tolist() for x in xs.tolist()]
    assert layout.boxes(np.arange(layout.window_start[-1])).tolist() == \
        [list(b) for b in expected]


def test_position_count_formula_equals_a_search():
    # every shape of several grids, all shapes at once as _difference_cells
    # broadcasts them, from far below the frame to far beyond it
    kinds = set()
    for width, height in [(500, 500), (128, 96), (37, 23), (7, 5)]:
        for min_area, step_iou in [(250.0, STEP_IOU), (30.0, 0.8), (16.0, 0.5)]:
            grids = _window_grids(width, height, min_area, step_iou)
            for axis, size in [(0, width), (1, height)] if grids else []:
                positions = [g[2 + axis] for g in grids]
                steps = np.array([g[4 + axis] for g in grids])[:, None]
                last = np.array([p[-1] for p in positions])[:, None]
                q = np.concatenate([[-10**9, -10**6], np.arange(-size - 3, 2 * size + 4),
                                    [10**6, 10**9]])
                expected = np.stack([np.searchsorted(p, q) for p in positions])
                assert np.array_equal(_positions_below(q, steps, last), expected)
                kinds |= {"one" if len(p) == 1 else "last on a step" if p[-1] % st == 0
                          else "last off the steps"
                          for p, st in zip(positions, steps[:, 0].tolist())}
    assert kinds == {"one", "last on a step", "last off the steps"}


def test_table_containment_equals_broadcast_compare():
    rng = np.random.default_rng(43)
    for width, height in [(48, 48), (96, 72)]:
        ctx = _random_scene(rng, width, height=height)
        x0, x1 = rng.integers(-5, width + 6, (2, 400))
        y0, y1 = rng.integers(-5, height + 6, (2, 400))
        # far outside the frame on every side
        x0[:4], y0[:4], x1[:4], y1[:4] = -10**6, -10**6, 10**6, 10**6
        x0[4:8], y0[4:8], x1[4:8], y1[4:8] = 10**6, 10**6, -10**6, -10**6
        gb = ctx.group_bounds
        expected = ((gb[None, :, 0] >= x0[:, None]) & (gb[None, :, 1] >= y0[:, None])
                    & (gb[None, :, 2] <= x1[:, None]) & (gb[None, :, 3] <= y1[:, None]))
        assert expected.any() and not expected.all()
        assert np.array_equal(ctx.contained(x0, y0, x1, y1), expected)


# the bench workloads' proposal budgets
BENCH_MAX_PROPOSALS = {"mover-dense": 40, "churn-cmd": 20, "large-cli": 15}


def _bench_first_frame(name):
    """The first generate_proposals call of a bench workload at scene seed 1,
    stopped before it runs; large-cli computes its flow, as in the bench."""
    scenes = runpy.run_path(str(SCENES))
    video = render(scenes["SPECS"][name](1))
    flows = None if name == "large-cli" else video.flows
    config = scenes["_config"](max_proposals=BENCH_MAX_PROPOSALS[name])

    class Captured(Exception):
        pass

    def capture(*args, **kwargs):
        raise Captured(args, kwargs)

    real = streamdet.propagation.generate_proposals
    streamdet.propagation.generate_proposals = capture
    try:
        next(streamdet.propagation.stream_cluster(video.frames, flows, config))
    except Captured as got:
        return got.args
    finally:
        streamdet.propagation.generate_proposals = real
    raise AssertionError("stream_cluster made no proposals")


def test_proposal_memory_peak_on_a_500px_frame():
    # the window layout is built inside the measured call
    args, kwargs = _bench_first_frame("large-cli")
    assert len(args[1]) > 500            # groups
    _window_layout.cache_clear()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        generate_proposals(*args, **kwargs)
        peak_mb = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak_mb < PEAK_BOUND_MB


def _whole_vector_pool(layout, ctx, pool):
    """The first pool windows by (-score, x, y, w, h), selected from one
    score vector of every window: the reference the run-by-run selection
    must equal bit for bit."""
    scores = score_grid(layout, ctx)
    top = np.flatnonzero(scores >= -np.partition(-scores, pool - 1)[pool - 1])
    b = layout.boxes(top)
    order = np.lexsort((b[:, 3], b[:, 2], b[:, 1], b[:, 0], -scores[top]))[:pool]
    return b[order], scores[top[order]]


def _dedupe_then_nms(edge_map, groups, config, frame_index=0):
    """generate_proposals with a dict that keeps each refined box once, at
    its best score, before nms: the reference that nms alone must equal.
    Also returns how many refined boxes the dict dropped."""
    ctx = ScoreContext(edge_map, groups)
    layout = _window_layout(ctx.width, ctx.height, config.min_box_area)
    pool = min(layout.window_start[-1], 4 * config.max_proposals)
    boxes, scores = _refine(*_whole_vector_pool(layout, ctx, pool), ctx)
    best: dict[tuple, float] = {}
    for box, score in zip(map(tuple, boxes.tolist()), scores.tolist()):
        best[box] = max(score, best.get(box, score))
    kept = [Proposal(Box(*box), score, frame_index) for box, score in best.items()
            if score > MIN_SCORE]
    return nms(kept, PRE_NMS_BETA)[:config.max_proposals], len(boxes) - len(best)


def test_nms_alone_drops_coincident_refined_boxes():
    dropped = 0
    for name in BENCH_MAX_PROPOSALS:
        args, kwargs = _bench_first_frame(name)
        proposals = generate_proposals(*args, **kwargs)
        boxes = [p.box.as_tuple() for p in proposals]
        assert len(set(boxes)) == len(boxes), name
        reference, coincident = _dedupe_then_nms(*args, **kwargs)
        assert proposals == reference, name
        dropped += coincident
    assert dropped > 0     # refinement does move windows onto one box


def _whole_vector_proposals(edge_map, groups, config, frame_index=0):
    """generate_proposals with its pool selected from one score vector of
    every window."""
    ctx = ScoreContext(edge_map, groups)
    layout = _window_layout(ctx.width, ctx.height, config.min_box_area)
    pool = min(layout.window_start[-1], 4 * config.max_proposals)
    boxes, scores = _refine(*_whole_vector_pool(layout, ctx, pool), ctx)
    proposals = [Proposal(Box(*b), s, frame_index)
                 for b, s in zip(boxes.tolist(), scores.tolist()) if s > MIN_SCORE]
    return nms(proposals, PRE_NMS_BETA)[:config.max_proposals]


def _bits(proposals):
    return [(p.box.as_tuple(), float(p.score).hex(), p.frame_index) for p in proposals]


def _scenes_for_runs():
    """(name, edge map, groups, max_proposals): random scenes at three frame
    sizes, an all-zero map, and one small square whose few enclosing windows
    leave thousands of windows tied at 0 on the pool-th score."""
    rng = np.random.default_rng(47)
    for width, height in [(48, 48), (96, 72), (128, 96)]:
        for density in (0.85, 0.6):
            E = (rng.random((height, width))
                 * (rng.random((height, width)) > density)).astype(np.float32)
            O = (rng.random((height, width)) * np.pi).astype(np.float32)
            yield f"random {width}x{height}", E, edge_groups(E, O, 0.1), 10
    zero = np.zeros((72, 96), dtype=np.float32)
    yield "all zero", zero, [], 10
    E = np.pad(_square_scene(72, 5, 12)[0], ((0, 0), (0, 24)))
    yield "one square", E, edge_groups(E, np.zeros_like(E), 0.1), 30


@pytest.fixture
def small_runs(monkeypatch):
    """Runs of at most 200 cells, so that every layout splits into many;
    layouts cached under it are dropped on both sides."""
    monkeypatch.setattr(streamdet.proposals, "RUN_CELLS", 200)
    _window_layout.cache_clear()
    yield 200
    _window_layout.cache_clear()


def test_runs_cover_the_layout_in_order_within_their_bound(small_runs):
    alone = together = 0
    for width, height in [(48, 48), (96, 72), (128, 96), (500, 500)]:
        layout = _window_layout(width, height, 250.0)
        assert [s0 for s0, _ in layout.runs] == [0] + [s1 for _, s1 in layout.runs[:-1]]
        assert layout.runs[-1][1] == len(layout.grids)
        for s0, s1 in layout.runs:
            cells = layout.cell_start[s1] - layout.cell_start[s0]
            assert s1 > s0 and (cells <= small_runs or s1 == s0 + 1)
            alone += cells > small_runs
            together += s1 > s0 + 1
    assert alone and together


def test_small_frames_are_scored_in_one_run():
    for width, height in [(96, 72), (128, 96)]:
        layout = WindowLayout(_window_grids(width, height, 250.0, STEP_IOU),
                              width, height)
        assert layout.runs == ((0, len(layout.grids)),)


def test_score_grid_of_a_shape_range_is_a_slice_of_the_whole_layout():
    rng = np.random.default_rng(53)
    for width, height in [(48, 48), (96, 72), (128, 96)]:
        ctx = _random_scene(rng, width, height=height)
        layout = _window_layout(width, height, 250.0)
        whole = score_grid(layout, ctx)
        n = len(layout.grids)
        ranges = [(0, n), (0, 1), (n - 1, n), (n // 3, 2 * n // 3), (2, 2)]
        ranges += [tuple(sorted(rng.integers(0, n + 1, 2).tolist())) for _ in range(6)]
        for s0, s1 in ranges:
            part = score_grid(layout, ctx, s0, s1)
            assert np.array_equal(
                part, whole[layout.window_start[s0]:layout.window_start[s1]]), (s0, s1)


def test_running_pool_equals_the_whole_vector_selection(small_runs):
    for name, E, groups, max_proposals in _scenes_for_runs():
        config = PipelineConfig(max_proposals=max_proposals, min_box_area=250.0)
        ctx = ScoreContext(E, groups)
        layout = _window_layout(ctx.width, ctx.height, config.min_box_area)
        assert len(layout.runs) > 3, name
        pool = min(layout.window_start[-1], 4 * max_proposals)
        boxes, scores = _best_windows(layout, ctx, pool)
        ref_boxes, ref_scores = _whole_vector_pool(layout, ctx, pool)
        assert np.array_equal(boxes, ref_boxes), name
        assert [s.hex() for s in scores.tolist()] == \
            [s.hex() for s in ref_scores.tolist()], name
        if name in ("all zero", "one square"):
            # the pool-th score is shared far beyond the pool, across runs
            tied = np.flatnonzero(score_grid(layout, ctx) == scores[-1])
            runs = np.searchsorted(layout.window_start, tied, side="right")
            assert len(tied) > 10 * pool and len(set(runs.tolist())) > 3, name
        assert _bits(generate_proposals(E, groups, config, 5)) == \
            _bits(_whole_vector_proposals(E, groups, config, 5)), name


def _refine_checking_every_bound(boxes, scores, ctx):
    """_refine with each move's trial boxes checked against all six window
    bounds: the reference the one-bound check must equal bit for bit."""
    boxes, scores = boxes.copy(), scores.copy()
    w0 = np.maximum(boxes[:, 2], boxes[:, 3])
    step = np.maximum(1, (w0 * (1.0 - STEP_IOU) / (1.0 + STEP_IOU) / 2).astype(np.int64))
    for _ in range(2):
        for _pass in range(2):
            for m in [(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, -1, 0, 0),
                      (0, 0, 1, 0), (0, 0, -1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]:
                cand = boxes + np.array(m)[None, :] * step[:, None]
                ok = ((cand[:, 0] >= 0) & (cand[:, 1] >= 0)
                      & (cand[:, 2] >= 4) & (cand[:, 3] >= 4)
                      & (cand[:, 0] + cand[:, 2] <= ctx.width)
                      & (cand[:, 1] + cand[:, 3] <= ctx.height))
                trial = np.where(ok[:, None], cand, boxes)
                s = score_boxes(trial, ctx)
                better = s > scores + 1e-12
                boxes = np.where(better[:, None], trial, boxes)
                scores = np.where(better, s, scores)
        step = np.maximum(1, step // 2)
    return boxes, scores


def test_refine_checks_the_one_bound_each_move_can_cross():
    rng = np.random.default_rng(59)
    moved = 0
    for width, height in [(48, 48), (96, 72), (128, 96)]:
        ctx = _random_scene(rng, width, height=height, density=0.7)
        layout = _window_layout(width, height, 16.0)
        boxes = layout.boxes(np.arange(layout.window_start[-1]))
        # random windows, then windows of width or height 4 and windows on
        # the frame's edges, which some moves take out of bounds
        for pool in (boxes[rng.permutation(len(boxes))[:300]],
                     boxes[(boxes[:, 2] == 4) | (boxes[:, 3] == 4)][:300],
                     boxes[(boxes[:, 0] == 0) | (boxes[:, 1] == 0)
                           | (boxes[:, 0] + boxes[:, 2] == width)
                           | (boxes[:, 1] + boxes[:, 3] == height)][::7]):
            scores = score_boxes(pool, ctx)
            got = _refine(pool, scores, ctx)
            expected = _refine_checking_every_bound(pool, scores, ctx)
            assert np.array_equal(got[0], expected[0])
            assert [s.hex() for s in got[1].tolist()] == \
                [s.hex() for s in expected[1].tolist()]
            moved += int((got[0] != pool).any(axis=1).sum())
    assert moved > 100


def _loop_candidates(width, height, min_area, step_iou, max_aspect):
    """The sliding-window enumeration as a per-window loop."""
    delta = step_iou
    area_step = 1.0 / delta
    aspect_step = ((1.0 + delta) / (2.0 * delta)) ** 2
    boxes = []
    area = min_area
    while area <= float(width * height) + 1e-9:
        n_aspects = int(np.floor(np.log(max_aspect) / np.log(aspect_step)))
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
    return set(boxes)


def test_window_grids_match_loop_enumeration():
    # (min_area, step_iou, max_aspect)
    params = [(1000.0, 0.65, MAX_ASPECT), (250.0, 0.65, MAX_ASPECT),
              (100.0, 0.5, 2.0), (30.0, 0.8, 4.0)]
    sizes = [(500, 500), (128, 96), (96, 72), (37, 23), (7, 5)]
    for width, height in sizes:
        for p in params[:2] if width * height > 20000 else params:
            rows = [(x, y, w, h)
                    for w, h, xs, ys, _, _ in _window_grids(width, height, *p)
                    for y in ys.tolist() for x in xs.tolist()]
            assert len(rows) == len(set(rows))
            assert set(rows) == _loop_candidates(width, height, *p)


def test_generate_on_frame_too_small_for_any_window():
    E = np.ones((3, 40), dtype=np.float32)
    groups = edge_groups(E, np.zeros_like(E), 0.1)
    assert groups
    config = PipelineConfig(min_box_area=16.0)
    assert generate_proposals(E, groups, config) == []
