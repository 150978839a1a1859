import numpy as np
import pytest

from streamdet.core import Box, iou
from streamdet.edges import EdgeGroup, edge_groups
from streamdet.proposals import (Proposal, ProposalParams, ScoreContext,
                                 _window_grids, generate_proposals, nms,
                                 score_box_bruteforce, score_boxes, score_grid)


def _random_scene(rng, size=64, density=0.85, thr=0.1):
    E = (rng.random((size, size)) * (rng.random((size, size)) > density))
    E = E.astype(np.float32)
    O = (rng.random((size, size)) * np.pi).astype(np.float32)
    groups = edge_groups(E, O, thr)
    return ScoreContext(E, groups, thr)


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
    params = ProposalParams(max_proposals=10, min_area=100.0)
    out = generate_proposals(np.zeros((48, 48), dtype=np.float32), [], params)
    assert len(out) <= 10


def test_generate_finds_square_object():
    E, ctx = _square_scene(64, 20, 43)
    O = np.zeros_like(E)
    O[20, :] = np.pi / 2
    O[43, :] = np.pi / 2
    groups = edge_groups(E, O, 0.1)
    params = ProposalParams(max_proposals=50, min_area=144.0)
    props = generate_proposals(E, groups, params, frame_index=3)
    assert props
    assert all(p.frame_index == 3 for p in props)
    target = Box(20, 20, 24, 24)
    assert iou(props[0].box, target) >= 0.7


def test_generate_truncates_and_sorts():
    rng = np.random.default_rng(31)
    E = (rng.random((48, 48)) * (rng.random((48, 48)) > 0.6)).astype(np.float32)
    O = (rng.random((48, 48)) * np.pi).astype(np.float32)
    groups = edge_groups(E, O, 0.1)
    params = ProposalParams(max_proposals=15, min_area=100.0)
    props = generate_proposals(E, groups, params)
    assert len(props) <= 15
    scores = [p.score for p in props]
    assert scores == sorted(scores, reverse=True)


def test_generate_deterministic():
    rng = np.random.default_rng(32)
    E = (rng.random((48, 48)) * (rng.random((48, 48)) > 0.6)).astype(np.float32)
    O = (rng.random((48, 48)) * np.pi).astype(np.float32)
    groups = edge_groups(E, O, 0.1)
    params = ProposalParams(max_proposals=20, min_area=100.0)
    a = generate_proposals(E, groups, params)
    b = generate_proposals(E, groups, params)
    assert [(p.box.as_tuple(), p.score) for p in a] == \
           [(p.box.as_tuple(), p.score) for p in b]


def test_params_validation():
    with pytest.raises(ValueError):
        ProposalParams(max_proposals=0)
    with pytest.raises(ValueError):
        ProposalParams(step_iou=1.0)
    with pytest.raises(ValueError):
        ProposalParams(nms_beta=0.0)


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
    params = ProposalParams(min_area=150.0, step_iou=0.5)
    size = 48
    for _ in range(6):
        ctx = _random_scene(rng, size=size)
        gb = ctx.group_bounds
        assert ((gb[:, :2] == 0) | (gb[:, 2:] == size)).any()   # groups on the border
        for w, h, xs, ys in _window_grids(size, size, params):
            assert xs[-1] == size - w and ys[-1] == size - h
            grid = score_grid(w, h, xs, ys, ctx)
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
    grid = score_grid(10, 10, xs, ys, ctx)
    boxes = [(x, y, 10, 10) for y in ys.tolist() for x in xs.tolist()]
    assert grid.ravel() == pytest.approx(score_boxes(boxes, ctx), rel=1e-12)
    assert (grid[:, 5:] == 0.0).all() and (grid[:, :5] > 0.0).all()


def _loop_candidates(width, height, params):
    """The sliding-window enumeration as a per-window loop."""
    delta = params.step_iou
    area_step = 1.0 / delta
    aspect_step = ((1.0 + delta) / (2.0 * delta)) ** 2
    boxes = []
    area = params.min_area
    while area <= float(width * height) + 1e-9:
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
    return set(boxes)


def test_window_grids_match_loop_enumeration():
    params = [ProposalParams(), ProposalParams(min_area=250.0),
              ProposalParams(min_area=100.0, step_iou=0.5, max_aspect=2.0),
              ProposalParams(min_area=30.0, step_iou=0.8, max_aspect=4.0)]
    sizes = [(500, 500), (128, 96), (96, 72), (37, 23), (7, 5)]
    for width, height in sizes:
        for p in params[:2] if width * height > 20000 else params:
            rows = [(x, y, w, h) for w, h, xs, ys in _window_grids(width, height, p)
                    for y in ys.tolist() for x in xs.tolist()]
            assert len(rows) == len(set(rows))
            assert set(rows) == _loop_candidates(width, height, p)


def test_generate_on_frame_too_small_for_any_window():
    E = np.ones((3, 40), dtype=np.float32)
    groups = edge_groups(E, np.zeros_like(E), 0.1)
    assert groups
    assert generate_proposals(E, groups, ProposalParams(min_area=16.0)) == []
