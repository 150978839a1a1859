import tracemalloc

import numpy as np
import pytest

from streamdet import motion
from streamdet.edges import to_gray
from streamdet.motion import (accumulate_prior, block_matching_flow,
                              inside_outside_map, motion_boundary, read_flow,
                              temporal_edge, write_flow)


def _textured(rng, h=48, w=48):
    frame = rng.integers(0, 255, size=(h, w), dtype=np.uint8)
    return frame


def test_flow_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    flow = rng.normal(size=(12, 17, 2)).astype(np.float32)
    path = tmp_path / "a.flo"
    write_flow(path, flow)
    back = read_flow(path)
    assert np.array_equal(back, flow)


def test_flow_zero_field(tmp_path):
    path = tmp_path / "z.flo"
    write_flow(path, np.zeros((5, 6, 2), dtype=np.float32))
    assert np.all(read_flow(path) == 0.0)


def test_flow_bad_magic(tmp_path):
    path = tmp_path / "bad.flo"
    path.write_bytes(b"\x00\x00\x00\x00" + b"\x02\x00\x00\x00" * 2)
    with pytest.raises(ValueError, match="magic"):
        read_flow(path)


def test_flow_truncated(tmp_path):
    import struct
    path = tmp_path / "trunc.flo"
    path.write_bytes(struct.pack("<fii", 202021.25, 8, 8) + b"\x00" * 16)
    with pytest.raises(ValueError, match="truncated"):
        read_flow(path)


def test_flow_dimension_mismatch(tmp_path):
    path = tmp_path / "dim.flo"
    write_flow(path, np.zeros((5, 6, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="frame"):
        read_flow(path, frame_shape=(7, 6))


def test_flow_from_external_writer_translation(tmp_path):
    # an independently written file for a 2 px translation reads back right
    import struct
    h, w = 10, 12
    payload = struct.pack("<fii", 202021.25, w, h)
    vecs = []
    for _ in range(h * w):
        vecs += [2.0, 0.0]
    payload += struct.pack(f"<{len(vecs)}f", *vecs)
    path = tmp_path / "ext.flo"
    path.write_bytes(payload)
    flow = read_flow(path)
    mean = flow.reshape(-1, 2).mean(axis=0)
    assert abs(mean[0] - 2.0) < 0.5 and abs(mean[1]) < 0.5


def test_block_matching_identical_frames():
    rng = np.random.default_rng(1)
    f = _textured(rng)
    flow = block_matching_flow(f, f, search_radius=3, block=5)
    assert np.all(flow == 0.0)


def test_block_matching_translation():
    rng = np.random.default_rng(2)
    f1 = _textured(rng, 64, 64)
    f2 = np.roll(f1, shift=3, axis=1)  # content moves +3 px in x
    flow = block_matching_flow(f1, f2, search_radius=4, block=5)
    interior = flow[8:-8, 8:-8]
    good = (interior[..., 0] == 3.0) & (interior[..., 1] == 0.0)
    assert good.mean() >= 0.9


def test_block_matching_flat_frames_tiebreak():
    f = np.full((32, 32), 99, dtype=np.uint8)
    flow = block_matching_flow(f, f, search_radius=4, block=5)
    assert np.all(flow == 0.0)


def test_block_matching_shape_mismatch():
    with pytest.raises(ValueError):
        block_matching_flow(np.zeros((4, 4)), np.zeros((5, 4)))


def test_motion_boundary_constant_flow():
    flow = np.ones((20, 20, 2), dtype=np.float32) * 2.5
    assert np.all(motion_boundary(flow) == 0.0)


def test_motion_boundary_zero_flow():
    assert np.all(motion_boundary(np.zeros((16, 16, 2))) == 0.0)


def test_motion_boundary_step_field():
    flow = np.zeros((32, 32, 2), dtype=np.float32)
    flow[:, :16, 0] = 2.0
    b = motion_boundary(flow)
    cols = b.sum(axis=0)
    seam = cols[14:18].sum()
    assert seam / max(cols.sum(), 1e-9) > 0.99
    assert np.all(b >= 0.0) and np.all(b <= 1.0)


def _rolled_motion_boundary(flow):
    """Reference: neighbors by np.roll, with the wrapped-around row or column
    masked out of the direction term."""
    flow = np.asarray(flow, dtype=np.float64)
    u, v = flow[..., 0], flow[..., 1]
    du_dy, du_dx = np.gradient(u)
    dv_dy, dv_dx = np.gradient(v)
    grad_norm = np.sqrt(du_dx ** 2 + du_dy ** 2 + dv_dx ** 2 + dv_dy ** 2)
    theta = np.arctan2(v, u)
    moving = np.hypot(u, v) > 1e-9
    dtheta = np.zeros_like(theta)
    for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        nb_theta = np.roll(theta, (dy, dx), axis=(0, 1))
        nb_moving = np.roll(moving, (dy, dx), axis=(0, 1))
        valid = np.ones_like(moving)
        if dy == -1:
            valid[-1, :] = False
        elif dy == 1:
            valid[0, :] = False
        if dx == -1:
            valid[:, -1] = False
        elif dx == 1:
            valid[:, 0] = False
        diff = np.abs(np.arctan2(np.sin(theta - nb_theta), np.cos(theta - nb_theta)))
        dtheta = np.maximum(dtheta, np.where(moving & nb_moving & valid, diff, 0.0))
    return (1.0 - np.exp(-(1.0 * grad_norm + 0.5 * dtheta))).astype(np.float32)


def test_motion_boundary_matches_rolled_reference():
    rng = np.random.default_rng(11)
    for trial in range(120):
        h, w = rng.integers(2, 40, size=2)
        if trial % 5 == 4:
            h, w = (2, w) if trial % 2 else (h, 2)
        flow = rng.normal(0.0, 2.0, size=(h, w, 2)).astype(np.float32)
        if trial % 4 == 1:
            flow = np.round(flow)               # integer flow, as block matching gives
        elif trial % 4 == 2:
            flow *= 1e-9                        # around the moving threshold
        elif trial % 4 == 3:
            # leftward flow with a signed zero y: directions of exactly +-pi
            flow[..., 0] = -np.abs(flow[..., 0])
            flow[..., 1] = np.where(rng.random((h, w)) < 0.5, 0.0, -0.0)
        flow[rng.random((h, w)) < 0.3] = 0.0    # zero-motion pixels
        assert np.array_equal(motion_boundary(flow), _rolled_motion_boundary(flow))


def _square_contour(size, lo, hi):
    m = np.zeros((size, size), dtype=np.float32)
    m[lo, lo:hi + 1] = 1.0
    m[hi, lo:hi + 1] = 1.0
    m[lo:hi + 1, lo] = 1.0
    m[lo:hi + 1, hi] = 1.0
    return m


def test_inside_outside_square():
    m = _square_contour(64, 16, 47)
    inside = inside_outside_map(m)
    interior = np.zeros_like(inside)
    interior[17:47, 17:47] = True
    exterior = np.ones_like(inside)
    exterior[16:48, 16:48] = False
    assert inside[interior].mean() >= 0.9
    assert inside[exterior].mean() <= 0.05


def test_inside_outside_empty_boundary():
    assert not inside_outside_map(np.zeros((32, 32), dtype=np.float32)).any()


def test_inside_outside_full_boundary():
    # degenerate: boundary everywhere -> documented as all outside
    assert not inside_outside_map(np.ones((24, 24), dtype=np.float32)).any()


def test_inside_outside_parity_oracle():
    # compare against a direct horizontal-parity oracle on a synthetic square
    m = _square_contour(48, 10, 37)
    inside = inside_outside_map(m)
    crossing = m >= motion.BOUNDARY_THRESHOLD
    for y in range(12, 36, 5):
        for x in range(12, 36, 5):
            if crossing[y, x]:
                continue
            runs = 0
            prev = False
            for xi in range(x + 1, 48):
                cur = bool(crossing[y, xi])
                if cur and not prev:
                    runs += 1
                prev = cur
            assert (runs % 2 == 1) == bool(inside[y, x])


def _ray_cast_inside(crossing):
    """Reference: walk each pixel's 8 rays to the frame edge, counting run
    starts (a boundary pixel after a non-boundary one, the pixel itself
    included); inside when at least 5 rays count an odd number."""
    h, w = crossing.shape
    inside = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            odd_rays = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == dx == 0:
                        continue
                    runs, prev = 0, crossing[y, x]
                    yy, xx = y + dy, x + dx
                    while 0 <= yy < h and 0 <= xx < w:
                        runs += bool(crossing[yy, xx] and not prev)
                        prev = crossing[yy, xx]
                        yy, xx = yy + dy, xx + dx
                    odd_rays += runs % 2
            inside[y, x] = odd_rays >= 5
    return inside


def test_inside_outside_matches_ray_casting():
    rng = np.random.default_rng(12)
    masks = [np.ones((1, 9)), np.ones((9, 1)), np.ones((6, 7)),
             np.zeros((1, 1)), np.ones((1, 1))]
    for _ in range(120):
        h, w = rng.integers(1, 16, size=2)
        masks.append(rng.random((h, w)) < rng.choice([0.1, 0.3, 0.6]))
    masks.append(_square_contour(20, 4, 15))
    for m in masks:
        m = np.asarray(m, dtype=np.float32)
        crossing = m >= motion.BOUNDARY_THRESHOLD
        assert np.array_equal(inside_outside_map(m), _ray_cast_inside(crossing))


def test_accumulate_identical_masks():
    m = np.zeros((10, 10))
    m[3:6, 3:6] = 1.0
    prior = accumulate_prior([m, m, m])
    assert np.array_equal(prior, m.astype(np.float32))
    assert prior.dtype == np.float32


def test_accumulate_partial_presence():
    on = np.ones((4, 4))
    off = np.zeros((4, 4))
    prior = accumulate_prior([on, on, off, off])
    assert np.all(prior == 0.5)


def test_accumulate_permutation_invariant():
    rng = np.random.default_rng(4)
    masks = [(rng.random((8, 8)) > 0.5).astype(float) for _ in range(4)]
    a = accumulate_prior(masks)
    b = accumulate_prior(masks[::-1])
    assert np.array_equal(a, b)


def test_accumulate_size_mismatch():
    with pytest.raises(ValueError):
        accumulate_prior([np.zeros((4, 4)), np.zeros((5, 4))])


def test_accumulate_translating_square():
    masks = []
    for t in range(3):
        m = np.zeros((20, 20))
        m[5:10, 4 + 3 * t:9 + 3 * t] = 1.0
        masks.append(m)
    prior = accumulate_prior(masks)
    expect = np.mean(masks, axis=0)
    assert np.allclose(prior, expect, atol=1e-7)


def test_temporal_edge_constant_prior():
    prior = accumulate_prior([np.full((12, 12), 1.0)])
    assert np.all(temporal_edge(prior) == 0.0)


def test_temporal_edge_zero_masks():
    prior = accumulate_prior([np.zeros((12, 12))] * 3)
    assert np.all(temporal_edge(prior) == 0.0)


def test_temporal_edge_square_prior():
    m = np.zeros((32, 32))
    m[10:22, 10:22] = 1.0
    prior = accumulate_prior([m])
    et = temporal_edge(prior)
    # finite-difference oracle: mass sits on the square's perimeter band
    gy, gx = np.gradient(m)
    oracle = np.hypot(gx, gy)
    oracle = oracle / oracle.max()
    assert np.allclose(et, oracle.astype(np.float32), atol=1e-6)
    band = np.zeros_like(m, dtype=bool)
    band[9:23, 9:23] = True
    band[12:20, 12:20] = False
    assert et[~band].sum() == pytest.approx(0.0, abs=1e-6)
    assert np.all(et >= 0.0)


def _stacked_argmin_flow(f1, f2, search_radius, block):
    """Reference block matching: every candidate's cost map stacked, then the
    first minimum along the stack."""
    from scipy.ndimage import uniform_filter
    from streamdet.edges import to_gray
    g1, g2 = to_gray(f1), to_gray(f2)
    h, w = g1.shape
    candidates = [(dx, dy) for dy in range(-search_radius, search_radius + 1)
                  for dx in range(-search_radius, search_radius + 1)]
    candidates.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))
    costs = np.empty((len(candidates), h, w), dtype=np.float64)
    for idx, (dx, dy) in enumerate(candidates):
        shifted = np.full((h, w), 1e6, dtype=np.float64)
        y0, y1 = max(0, -dy), min(h, h - dy)
        x0, x1 = max(0, -dx), min(w, w - dx)
        if y1 > y0 and x1 > x0:
            shifted[y0:y1, x0:x1] = g2[y0 + dy:y1 + dy, x0 + dx:x1 + dx]
        costs[idx] = uniform_filter(np.abs(g1 - shifted), size=block, mode="nearest")
    return np.asarray(candidates, dtype=np.float32)[np.argmin(costs, axis=0)]


def test_block_matching_matches_stacked_argmin_on_ties(monkeypatch):
    # the candidate scan split into 1, 2, 3, ... slices merges to one scan's
    # flow; 81 and 200 workers give one candidate per slice
    for workers in (1, 2, 3, 81, 200):
        monkeypatch.setattr(motion, "_flow_workers", lambda: workers)
        rng = np.random.default_rng(3)
        f1 = np.full((40, 52), 120, dtype=np.uint8)
        f1[5:18, 6:20] = 200                        # flat patches: many tied costs
        f1[24:36, 30:46] = 40
        f1[:, 48:] = rng.integers(0, 4, size=(40, 4)) * 60   # coarse, repeating texture
        f2 = np.roll(f1, shift=(1, 2), axis=(0, 1))
        for radius, block in ((2, 3), (4, 5)):
            flow = block_matching_flow(f1, f2, search_radius=radius, block=block)
            ref = _stacked_argmin_flow(f1, f2, radius, block)
            assert flow.dtype == np.float32
            assert np.array_equal(flow, ref)
        # non-square frames, and frames smaller than the search window, where
        # whole candidates read only the 1e6 sentinel beyond the frame
        for (h, w), radius, block in (((23, 9), 3, 5), ((3, 5), 4, 3), ((3, 5), 4, 5),
                                      ((5, 3), 4, 5), ((1, 6), 2, 3), ((2, 2), 3, 5)):
            g1 = rng.integers(0, 3, size=(h, w)).astype(np.uint8) * 90
            g2 = np.roll(g1, shift=(1, -1), axis=(0, 1))
            g2[0] = 255
            flow = block_matching_flow(g1, g2, search_radius=radius, block=block)
            assert flow.shape == (h, w, 2)
            assert np.array_equal(flow, _stacked_argmin_flow(g1, g2, radius, block))


def _peak_fields(fn, *args) -> float:
    """tracemalloc peak of one call, in float64 fields of 500x500 pixels."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / (500 * 500 * 8)
    finally:
        if not tracing:
            tracemalloc.stop()


def test_motion_memory_peak_on_500px_frames(monkeypatch):
    rng = np.random.default_rng(8)
    f1 = rng.integers(0, 255, size=(500, 500, 3), dtype=np.uint8)
    f2 = np.roll(f1, shift=(2, -3), axis=(0, 1))
    # per slice: cost and best cost (2 fields), index and mask (1/4); beside
    # them the float64 frames (2) and their float32 grays (1); one scan with
    # an intp index and a separate difference buffer peaked at 8.7 fields
    for workers in (1, 2, 4):
        monkeypatch.setattr(motion, "_flow_workers", lambda: workers)
        assert _peak_fields(block_matching_flow, f1, f2) <= 3.75 + 2.25 * workers
    # five float64 fields, two bool masks and the float32 result; the
    # expression-by-expression version peaked at 14.3 fields
    flow = np.round(rng.normal(0.0, 2.0, size=(500, 500, 2))).astype(np.float32)
    assert _peak_fields(motion_boundary, flow) <= 6.0


def test_to_gray_memory_peak_on_a_500px_frame():
    # luma and one channel's term in float64 (2 fields) and the float32
    # result; converting the whole frame to float64 first peaked at 5 fields
    frame = np.random.default_rng(9).integers(0, 256, size=(500, 500, 3), dtype=np.uint8)
    assert _peak_fields(to_gray, frame) <= 2.75
