import tracemalloc

import numpy as np
import pytest

from streamdet import motion
from streamdet.edges import spatial_edge, to_gray
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


def _candidates(radius):
    """Block matching's candidates, in its order."""
    candidates = [(dx, dy) for dy in range(-radius, radius + 1)
                  for dx in range(-radius, radius + 1)]
    return sorted(candidates, key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))


def _stacked_argmin_flow(f1, f2, search_radius, block, scale=None):
    """Reference block matching: every candidate's SAD map over the whole
    frame, stacked, then the first minimum along the stack.

    With ``scale``, the luma is multiplied by it into int64 (exactly, or the
    oracle fails), so the SADs are exact integers whatever the order of the
    sums. Without it, the SADs are float64 sums in the order block matching
    documents: along the row, then down the column."""
    g1, g2 = to_gray(f1).astype(np.float64), to_gray(f2).astype(np.float64)
    sentinel = 256.0    # the second frame beyond its edge
    if scale is not None:
        g1, g2 = g1 * scale, g2 * scale
        assert np.all(g1 % 1 == 0) and np.all(g2 % 1 == 0)
        g1, g2, sentinel = g1.astype(np.int64), g2.astype(np.int64), int(sentinel * scale)
    h, w = g1.shape
    r, before = search_radius, block // 2
    g2 = np.pad(g2, r, constant_values=sentinel)
    costs = []
    for dx, dy in _candidates(r):
        cost = np.abs(g1 - g2[r + dy:r + dy + h, r + dx:r + dx + w])
        cost = np.pad(cost, [(before, block - 1 - before)] * 2, mode="edge")
        across = cost[:, :w]
        for k in range(1, block):
            across = across + cost[:, k:k + w]
        sad = across[:h]
        for k in range(1, block):
            sad = sad + across[k:k + h]
        costs.append(sad)
    costs = np.stack(costs)
    return np.asarray(_candidates(r), dtype=np.float32)[np.argmin(costs, axis=0)], costs


# the luma of an 8-bit frame is a multiple of 2^-35
EXACT = 2.0 ** 35


def test_block_matching_matches_stacked_argmin_on_ties():
    # flat patches and coarse, repeating texture: most pixels tie exactly,
    # and the first tied candidate must win
    rng = np.random.default_rng(3)
    f1 = np.full((40, 52), 120, dtype=np.uint8)
    f1[5:18, 6:20] = 200
    f1[24:36, 30:46] = 40
    f1[:, 48:] = rng.integers(0, 4, size=(40, 4)) * 60
    f2 = np.roll(f1, shift=(1, 2), axis=(0, 1))
    for radius, block in ((2, 3), (4, 5), (3, 4), (2, 2), (1, 1)):
        flow = block_matching_flow(f1, f2, search_radius=radius, block=block)
        ref, costs = _stacked_argmin_flow(f1, f2, radius, block, EXACT)
        assert flow.dtype == np.float32
        assert np.array_equal(flow, ref)
    tied = (costs == costs.min(axis=0)).sum(axis=0) > 1
    assert tied.mean() > 0.5
    # RGB frames, non-square frames, and frames smaller than the search
    # window, where whole candidates read only the sentinel beyond the frame
    rgb = rng.integers(0, 256, size=(30, 34, 3), dtype=np.uint8)
    rgb2 = np.roll(rgb, shift=(-2, 3), axis=(0, 1))
    rgb2[10:20, 10:20] = rgb[10:20, 10:20]
    assert np.array_equal(block_matching_flow(rgb, rgb2),
                          _stacked_argmin_flow(rgb, rgb2, 4, 5, EXACT)[0])
    for (h, w), radius, block in (((23, 9), 3, 5), ((3, 5), 4, 3), ((3, 5), 4, 5),
                                  ((5, 3), 4, 5), ((1, 6), 2, 3), ((2, 2), 3, 5),
                                  ((70, 11), 2, 6)):
        g1 = rng.integers(0, 3, size=(h, w)).astype(np.uint8) * 90
        g2 = np.roll(g1, shift=(1, -1), axis=(0, 1))
        g2[0] = 255
        flow = block_matching_flow(g1, g2, search_radius=radius, block=block)
        assert flow.shape == (h, w, 2)
        assert np.array_equal(flow, _stacked_argmin_flow(g1, g2, radius, block, EXACT)[0])


@pytest.mark.parametrize("seed", range(4))
def test_block_matching_pruned_scan_equals_the_unpruned_scan(seed):
    # float frames, whose SADs are rounded: the pruned scan gives the bytes
    # of scoring every candidate on every pixel. Static regions make whole
    # row tiles, and parts of others, keep (0, 0) unscanned
    rng = np.random.default_rng(seed)
    h, w = 3 * motion.FLOW_ROWS + 7, 61
    f1 = rng.random((h, w)).astype(np.float32)
    f2 = f1.copy()
    for _ in range(3):
        y, x = rng.integers(0, h - 8), rng.integers(0, w - 8)
        f2[y:y + 8, x:x + 8] = rng.random((8, 8))
    band = slice(motion.FLOW_ROWS + 3, motion.FLOW_ROWS + 9)
    f2[band] = np.roll(f1[band], 2, axis=1)     # a band moving right
    f2[-2:, :5] = 0.0                           # a change at a corner
    # a faint bump moving one pixel left on a flat patch: its (0, 0) SAD is
    # tiny but positive, and (-1, 0) matches it exactly
    f1[80:92, 20:32] = f2[80:92, 20:32] = 0.5
    f1[86, 26] += 1e-6
    f2[86, 25] += 1e-6
    for radius, block in ((4, 5), (3, 4), (2, 1)):
        ref, costs = _stacked_argmin_flow(f1, f2, radius, block)
        assert 0.5 < (costs[0] == 0).mean() < 0.95
        flow = block_matching_flow(f1, f2, search_radius=radius, block=block)
        assert flow.tobytes() == ref.tobytes()
        assert np.all(flow[86, 26] == (-1.0, 0.0))


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


def test_motion_memory_peak_on_500px_frames():
    rng = np.random.default_rng(8)
    f1 = rng.integers(0, 255, size=(500, 500, 3), dtype=np.uint8)
    f2 = np.roll(f1, shift=(2, -3), axis=(0, 1))
    # the float64 g1 and padded g2 (2.03 fields), the best SAD (1) and index
    # (1/8) and three tile buffers, then the index and the float32 flow (1):
    # 3.54 fields, while padding g2. The scan split into slices on a thread
    # pool held 2.25 fields per slice beside 3.75 (6.0 at one slice)
    assert _peak_fields(block_matching_flow, f1, f2) <= 6.0
    # four float64 fields, bool masks and the gathers (4.86 fields); five
    # float64 fields, two bool masks and the float32 result peaked at 5.75,
    # the expression-by-expression version at 14.3
    flow = np.round(rng.normal(0.0, 2.0, size=(500, 500, 2))).astype(np.float32)
    assert _peak_fields(motion_boundary, flow) <= 6.0


def test_to_gray_memory_peak_on_a_500px_frame():
    # luma and one channel's term in float64 (2 fields) and the float32
    # result; converting the whole frame to float64 first peaked at 5 fields
    frame = np.random.default_rng(9).integers(0, 256, size=(500, 500, 3), dtype=np.uint8)
    assert _peak_fields(to_gray, frame) <= 2.75


def test_spatial_edge_memory_peak_on_a_500px_frame():
    # while smoothing: the float32 luma, its padded float64 copy and the
    # smoothed field (2.94 fields with the filter's row tiles); then the
    # smoothed field, overwritten tile by tile by the gradient magnitude, and
    # the two float32 results. Whole-frame derivatives, a padded copy for
    # the Scharr filter and one new array per step peaked at 5.04 fields
    frame = np.random.default_rng(9).integers(0, 256, size=(500, 500, 3), dtype=np.uint8)
    assert _peak_fields(spatial_edge, frame) <= 3.0


def _blob_fields(shape, rng):
    """2-D fields that are constant except for a random blob touching each
    frame edge, each corner or neither; constant fields of +0.0, of +-0.0
    and of a nonzero value; and a field that changes everywhere."""
    h, w = shape
    fields = [np.zeros(shape), np.where(rng.random(shape) < 0.5, 0.0, -0.0),
              np.full(shape, 0.6), rng.random(shape)]
    bh, bw = max(1, h // 4), max(1, w // 4)
    for background in (0.0, 0.3):
        for y0 in (0, (h - bh) // 2, h - bh):
            for x0 in (0, (w - bw) // 2, w - bw):
                field = np.full(shape, background)
                field[y0:y0 + bh, x0:x0 + bw] = rng.random((bh, bw))
                fields.append(field)
    return fields


BOX_SHAPES = [(1, 9), (9, 1), (2, 2), (2, 11), (11, 2), (5, 7), (24, 31), (40, 40)]


def _full_frame_temporal_edge(prior):
    """temporal_edge's formula on the whole frame, as it was first computed."""
    gy, gx = np.gradient(np.asarray(prior, dtype=np.float64))
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak > 0:
        mag = mag / peak
    return mag.astype(np.float32)


@pytest.mark.parametrize("shape", BOX_SHAPES)
def test_temporal_edge_on_the_changing_box_equals_the_full_frame(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    for field in _blob_fields(shape, rng):
        for prior in (field, field.astype(np.float32)):
            if min(shape) < 2:
                # np.gradient needs 2 samples per axis, cropped or not
                with pytest.raises(ValueError):
                    temporal_edge(prior)
                continue
            got = temporal_edge(prior)
            assert got.tobytes() == _full_frame_temporal_edge(prior).tobytes()


@pytest.mark.parametrize("shape", BOX_SHAPES)
def test_inside_outside_on_the_crossing_box_equals_the_full_frame(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + 1)
    for field in _blob_fields(shape, rng):
        boundary = field.astype(np.float32)
        crossing = boundary >= motion.BOUNDARY_THRESHOLD
        votes = sum(motion._ray_odd_run_starts(crossing, dy, dx).astype(np.uint8)
                    for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx)
        inside = inside_outside_map(boundary)
        assert np.array_equal(inside, votes >= 5)
        assert np.array_equal(inside, _ray_cast_inside(crossing))


def _blob_flows(shape, rng):
    """Flows built from _blob_fields, plus flows whose y is +0.0 or -0.0
    beside a negative x (directions +pi and -pi) and flows of +-0.0 only."""
    fields = _blob_fields(shape, rng)
    flows = [np.stack([4 * a - 2, np.round(4 * b - 2)], axis=-1).astype(np.float32)
             for a, b in zip(fields, fields[1:] + fields[:1])]
    for field in fields[4:]:
        zero_y = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        flows.append(np.stack([-1.0 - field, zero_y], axis=-1).astype(np.float32))
        flows.append(np.stack([np.where(field > 0.5, 0.0, -0.0), zero_y], axis=-1))
    return flows


@pytest.mark.parametrize("shape", [s for s in BOX_SHAPES if min(s) >= 2])
def test_motion_boundary_on_the_moving_pixels_equals_the_full_frame(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + 2)
    for flow in _blob_flows(shape, rng):
        assert motion_boundary(flow).tobytes() == _rolled_motion_boundary(flow).tobytes()


def test_motion_boundary_rejects_a_single_row_or_column():
    for shape in ((1, 9, 2), (9, 1, 2)):
        with pytest.raises(ValueError, match="at least 2x2"):
            motion_boundary(np.ones(shape))


def test_motion_boundary_chunks_agree_with_one_pass(monkeypatch):
    # pieces of 7 pixels split rows and neighbour pairs between gathers
    rng = np.random.default_rng(13)
    flows = _blob_flows((24, 31), rng)
    expected = [motion_boundary(flow).tobytes() for flow in flows]
    monkeypatch.setattr(motion, "GATHER_CHUNK", 7)
    assert [motion_boundary(flow).tobytes() for flow in flows] == expected


def test_prior_stages_compute_only_the_changing_box(monkeypatch):
    # the prior of one 20x30 blob in a 500x500 frame: temporal_edge works on
    # the blob widened by 2 pixels, inside_outside_map on the crossings' box
    prior = np.zeros((500, 500), dtype=np.float32)
    prior[200:220, 100:130] = 0.5
    seen = []

    def spy(stage):
        def record(field, *args):
            seen.append(np.shape(field))
            return stage(field, *args)
        return record

    monkeypatch.setattr(motion, "_gradient_magnitude", spy(motion._gradient_magnitude))
    monkeypatch.setattr(motion, "_ray_odd_run_starts", spy(motion._ray_odd_run_starts))
    temporal_edge(prior)
    assert seen == [(24, 34)]
    seen.clear()
    inside_outside_map(prior)
    assert seen == [(20, 30)] * 8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_accumulate_prior_has_the_bytes_of_the_float64_mean(n):
    rng = np.random.default_rng(n)
    for shape in ((1, 1), (7, 5), (64, 48)):
        masks = [rng.random(shape) < p for p in (0.2, 0.5, 0.8, 0.5)[:n]]
        expected = np.mean([m.astype(np.float64) for m in masks], axis=0)
        for given in (masks, [m.astype(np.float32) for m in masks]):
            prior = accumulate_prior(given)
            assert prior.dtype == np.float32
            assert prior.tobytes() == expected.astype(np.float32).tobytes()


def test_prior_memory_peaks_on_500px_frames():
    # accumulate_prior: uint8 counts and the float32 result; a float64 copy
    # of every mask, stacked, peaked at 9.0 fields for four masks
    rng = np.random.default_rng(10)
    masks = [rng.random((500, 500)) < 0.1 for _ in range(4)]
    assert _peak_fields(accumulate_prior, masks) <= 0.75
