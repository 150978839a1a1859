import numpy as np
import pytest

from streamdet.edges import (combine_edges, combined_orientation, edge_groups,
                             spatial_edge, thin_edges)


def test_spatial_edge_constant_frame():
    frame = np.full((32, 32, 3), 120, dtype=np.uint8)
    mag, orient = spatial_edge(frame)
    assert np.all(mag == 0.0)
    assert mag.shape == orient.shape == (32, 32)


def test_spatial_edge_vertical_step():
    frame = np.zeros((40, 40), dtype=np.uint8)
    frame[:, 20:] = 200
    mag, orient = spatial_edge(frame)
    peak_cols = np.argmax(mag, axis=1)
    assert np.all(np.abs(peak_cols - 19.5) <= 1.5)
    # gradient of a vertical step points horizontally: orientation ~ 0 mod pi
    strong = mag > 0.5
    ang = orient[strong]
    dist = np.minimum(ang, np.pi - ang)
    assert np.all(dist < 0.15)


def test_combine_endpoints():
    rng = np.random.default_rng(0)
    es = rng.random((20, 20)).astype(np.float32)
    et = rng.random((20, 20)).astype(np.float32)
    assert np.array_equal(combine_edges(es, et, 0.0), es)
    assert np.array_equal(combine_edges(es, et, 1.0), et)


def test_combine_operating_point():
    rng = np.random.default_rng(1)
    es = rng.random((16, 16)).astype(np.float32)
    et = rng.random((16, 16)).astype(np.float32)
    out = combine_edges(es, et, 0.2)
    assert np.allclose(out, 0.2 * et + 0.8 * es, rtol=1e-6)


def test_combine_validation():
    es = np.zeros((4, 4), dtype=np.float32)
    with pytest.raises(ValueError):
        combine_edges(es, np.zeros((5, 4), dtype=np.float32), 0.5)
    with pytest.raises(ValueError):
        combine_edges(es, es, 1.5)


def test_combine_monotone():
    rng = np.random.default_rng(2)
    es = rng.random((12, 12)).astype(np.float32)
    et = rng.random((12, 12)).astype(np.float32)
    base = combine_edges(es, et, 0.4)
    bigger = combine_edges(es + 0.1, et, 0.4)
    assert np.all(bigger >= base)


def test_combined_orientation_winner():
    es = np.array([[1.0, 0.0]], dtype=np.float32)
    et = np.array([[0.0, 1.0]], dtype=np.float32)
    os_ = np.array([[0.3, 0.3]], dtype=np.float32)
    ot = np.array([[1.2, 1.2]], dtype=np.float32)
    out = combined_orientation(es, et, os_, ot, 0.5)
    assert out[0, 0] == pytest.approx(0.3)
    assert out[0, 1] == pytest.approx(1.2)


# (dy, dx) of one step along each quantised normal: 0, pi/4, pi/2, 3pi/4
_NORMALS = [(0, 1), (1, 1), (1, 0), (1, -1)]


@pytest.mark.parametrize("d", range(4))
def test_thin_edges_blurred_step_thins_to_a_one_pixel_ridge(d):
    dy, dx = _NORMALS[d]
    yy, xx = np.mgrid[0:30, 0:34]
    s = yy * dy + xx * dx          # position along the normal, in grid steps
    centre = float(np.median(s)) + 0.3
    # gradient magnitude of a Gaussian-blurred step across the normal
    E = np.exp(-(s - centre) ** 2 / (2 * 1.5 ** 2)).astype(np.float32)
    O = np.full(E.shape, d * np.pi / 4, dtype=np.float32)
    out = thin_edges(E, O)
    # one pixel survives on each line along the normal: the nearest to the
    # centre among the positions the line visits (it steps by |dy| + |dx|)
    ridge = np.abs(s - centre) < (abs(dy) + abs(dx)) / 2
    inner = (slice(1, -1), slice(1, -1))
    assert np.array_equal(out[inner] > 0, ridge[inner])
    for y, x in zip(*np.nonzero(ridge[inner])):
        y, x = y + 1, x + 1
        for sy, sx in ((dy, dx), (-dy, -dx)):
            assert E[y + sy, x + sx] > 0 and out[y + sy, x + sx] == 0


@pytest.mark.parametrize("d", range(4))
def test_spatial_edge_orientation_points_along_the_normal_step(d):
    # the steps above follow spatial_edge's convention: a step across the
    # normal (dy, dx) has an orientation near d * pi / 4
    dy, dx = _NORMALS[d]
    yy, xx = np.mgrid[0:30, 0:34]
    frame = np.where(yy * dy + xx * dx > np.median(yy * dy + xx * dx), 200, 0)
    mag, orient = spatial_edge(frame.astype(np.uint8))
    strong = mag[4:-4, 4:-4] > 0.5
    quantised = np.rint(orient[4:-4, 4:-4][strong] / (np.pi / 4)).astype(int) % 4
    assert strong.any() and np.all(quantised == d)


def test_thin_edges_keeps_a_plateau_pixel_equal_to_both_neighbours():
    E = np.zeros((5, 5), dtype=np.float32)
    E[2, 1:4] = 0.5
    out = thin_edges(E, np.zeros_like(E))
    assert out[2, 2] == 0.5


@pytest.mark.parametrize("angle", [0.0, np.pi / 2])
def test_thin_edges_compares_a_border_pixel_against_zero(angle):
    # the pixel's neighbour across the frame is larger, so a map that wraps
    # around, instead of padding with 0, would drop it
    E = np.zeros((6, 7), dtype=np.float32)
    if angle == 0.0:
        E[2, 0], E[2, -1] = 0.3, 0.9
        border = (2, 0)
    else:
        E[0, 3], E[-1, 3] = 0.3, 0.9
        border = (0, 3)
    out = thin_edges(E, np.full(E.shape, angle, dtype=np.float32))
    assert out[border] == np.float32(0.3)
    # a border pixel below its neighbour inside the frame is dropped
    inside = (border[0] + (angle != 0.0), border[1] + (angle == 0.0))
    E[inside] = 0.4
    assert thin_edges(E, np.full(E.shape, angle, dtype=np.float32))[border] == 0


def test_thin_edges_angle_just_below_pi_uses_the_zero_direction():
    E = np.full((3, 3), 0.9, dtype=np.float32)
    E[1] = (0.4, 0.5, 0.4)
    near_pi = np.full(E.shape, np.pi - 1e-3, dtype=np.float32)
    assert thin_edges(E, near_pi)[1, 1] == np.float32(0.5)
    E[1, 0] = 0.6
    assert thin_edges(E, near_pi)[1, 1] == 0
    E[1, 0] = 0.4
    # the same pixel along any other normal is dropped
    for d in (1, 2, 3):
        assert thin_edges(E, np.full(E.shape, d * np.pi / 4,
                                     dtype=np.float32))[1, 1] == 0


def _reference_thin(E, O):
    h, w = E.shape
    out = np.zeros_like(E)
    for y in range(h):
        for x in range(w):
            dy, dx = _NORMALS[int(np.floor(O[y, x] / (np.pi / 4) + 0.5)) % 4]
            nbrs = [E[y + sy, x + sx] if 0 <= y + sy < h and 0 <= x + sx < w else 0.0
                    for sy, sx in ((dy, dx), (-dy, -dx))]
            if E[y, x] >= max(nbrs):
                out[y, x] = E[y, x]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_thin_edges_keeps_input_bits_and_matches_a_per_pixel_reference(seed):
    rng = np.random.default_rng(seed)
    E = rng.random((17, 23)).astype(np.float32)
    E[rng.random(E.shape) < 0.3] = 0.0
    # angles kept off the quantisation boundaries, which rounding could tip
    O = np.mod(rng.integers(0, 4, E.shape) * np.pi / 4
               + rng.uniform(-0.35, 0.35, E.shape), np.pi).astype(np.float32)
    out = thin_edges(E, O)
    assert out.dtype == np.float32 and out.shape == E.shape
    kept = out != 0
    assert kept.any() and (~kept & (E > 0)).any()
    assert np.array_equal(out[kept].view(np.uint32), E[kept].view(np.uint32))
    assert np.array_equal(out, _reference_thin(E, O))


def test_thin_edges_all_zero_map_stays_zero():
    E = np.zeros((8, 9), dtype=np.float32)
    out = thin_edges(E, np.zeros_like(E))
    assert out.dtype == np.float32 and not out.any()


def test_edge_groups_empty_map():
    E = np.zeros((16, 16), dtype=np.float32)
    assert edge_groups(E, np.zeros_like(E)) == []


def test_edge_groups_single_line():
    E = np.zeros((16, 16), dtype=np.float32)
    O = np.zeros((16, 16), dtype=np.float32)
    E[8, 2:14] = 1.0
    groups = edge_groups(E, O, 0.1)
    assert len(groups) == 1
    assert groups[0].pixels.shape[0] == 12
    assert groups[0].magnitude == pytest.approx(12.0)


def test_edge_groups_l_shape_splits():
    E = np.zeros((20, 20), dtype=np.float32)
    O = np.zeros((20, 20), dtype=np.float32)
    # vertical arm: edge normal horizontal (orientation 0)
    E[2:12, 4] = 1.0
    O[2:12, 4] = 0.0
    # horizontal arm: edge normal vertical (orientation pi/2)
    E[11, 4:16] = 1.0
    O[11, 5:16] = np.pi / 2
    groups = edge_groups(E, O, 0.1)
    assert len(groups) == 2
    sizes = sorted(g.pixels.shape[0] for g in groups)
    assert sum(sizes) == 10 + 11  # corner pixel counted once


def test_edge_groups_partition_and_mass():
    rng = np.random.default_rng(9)
    E = (rng.random((32, 32)) * (rng.random((32, 32)) > 0.7)).astype(np.float32)
    O = (rng.random((32, 32)) * np.pi).astype(np.float32)
    thr = 0.1
    groups = edge_groups(E, O, thr)
    covered = np.zeros_like(E, dtype=int)
    total_mass = 0.0
    for g in groups:
        covered[g.pixels[:, 0], g.pixels[:, 1]] += 1
        total_mass += g.magnitude
        assert g.magnitude > 0
    mask = E >= thr
    assert np.array_equal(covered > 0, mask)
    assert np.all(covered <= 1)
    assert total_mass == pytest.approx(float(E[mask].astype(np.float64).sum()),
                                       rel=1e-9)


def _reference_edge_groups(E, O, thr):
    """Pixel-by-pixel BFS over the full frame, as edge_groups once was:
    (pixels in BFS order, bbox tuple, magnitude) per group."""
    from collections import deque
    E = np.asarray(E, dtype=np.float32)
    O = np.asarray(O, dtype=np.float64)
    h, w = E.shape
    mask = E >= thr
    labels = np.full((h, w), -1, dtype=np.int32)
    limit = np.pi / 2 - 1e-6
    out = []
    ys, xs = np.nonzero(mask)
    for y0, x0 in zip(ys.tolist(), xs.tolist()):
        if labels[y0, x0] >= 0:
            continue
        labels[y0, x0] = len(out)
        members = [(y0, x0)]
        queue = deque([(y0, x0, 0.0)])
        while queue:
            y, x, acc = queue.popleft()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if (dy == 0 and dx == 0) or ny < 0 or nx < 0 or ny >= h or nx >= w:
                        continue
                    if not mask[ny, nx] or labels[ny, nx] >= 0:
                        continue
                    d = abs(O[y, x] - O[ny, nx]) % np.pi
                    nacc = acc + min(d, np.pi - d)
                    if nacc >= limit:
                        continue
                    labels[ny, nx] = len(out)
                    members.append((ny, nx))
                    queue.append((ny, nx, nacc))
        pix = np.array(members, dtype=np.int32)
        mags = E[pix[:, 0], pix[:, 1]].astype(np.float32)
        (y_min, x_min), (y_max, x_max) = pix.min(axis=0), pix.max(axis=0)
        out.append((pix, (int(x_min), int(y_min), int(x_max - x_min + 1),
                          int(y_max - y_min + 1)),
                    float(mags.sum(dtype=np.float64))))
    return out


def _assert_groups_match_reference(E, O, thr):
    groups = edge_groups(E, O, thr)
    ref = _reference_edge_groups(E, O, thr)
    assert len(groups) == len(ref)
    for g, (pix, bbox, mag) in zip(groups, ref):
        assert g.pixels.dtype == np.int32
        assert np.array_equal(g.pixels, pix)
        assert g.bbox.as_tuple() == bbox
        assert g.magnitude == mag
    return groups


@pytest.mark.parametrize("thr", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("seed", range(4))
def test_edge_groups_match_reference_on_random_maps(thr, seed):
    rng = np.random.default_rng(100 + seed)
    h, w = 24 + seed, 31 - seed
    E = (rng.random((h, w)) * (rng.random((h, w)) > 0.3)).astype(np.float32)
    # values at the threshold and one float32 step below it
    at = rng.random((h, w)) < 0.1
    E[at] = np.float32(thr)
    below = rng.random((h, w)) < 0.05
    E[below] = np.nextafter(np.float32(thr), np.float32(0))
    # smooth orientations grow large groups; noise cuts them at pi/2
    O = (np.cumsum(rng.random((h, w)) * 0.3, axis=1) % np.pi
         + rng.normal(0, 0.2, (h, w)) * (seed % 2)).astype(np.float32)
    _assert_groups_match_reference(E, O, thr)


@pytest.mark.parametrize("shape", [(1, 23), (23, 1), (1, 1), (2, 9), (9, 2)])
def test_edge_groups_match_reference_on_thin_maps(shape):
    rng = np.random.default_rng(sum(shape))
    E = (rng.random(shape) * (rng.random(shape) > 0.2)).astype(np.float32)
    O = (rng.random(shape) * 1.2).astype(np.float32)
    _assert_groups_match_reference(E, O, 0.1)


def test_edge_groups_match_reference_on_frame_border():
    rng = np.random.default_rng(5)
    E = np.zeros((17, 13), dtype=np.float32)
    E[0, :] = E[-1, :] = 1.0
    E[:, 0] = E[:, -1] = 0.5
    E[6:9, 4:8] = 0.8
    O = (rng.random((17, 13)) * 0.6).astype(np.float32)
    groups = _assert_groups_match_reference(E, O, 0.1)
    assert sum(g.pixels.shape[0] for g in groups) == int((E >= 0.1).sum())


def test_edge_groups_wrap_orientation_near_zero_and_pi():
    # orientations on both sides of 0 == pi differ by 0.02 along the line
    E = np.zeros((9, 30), dtype=np.float32)
    E[4, 1:29] = 1.0
    E[2:7, 15] = 1.0
    O = np.zeros((9, 30), dtype=np.float32)
    O[4, 1:29:2] = 0.01
    O[4, 2:29:2] = np.float32(np.pi - 0.01)
    O[2:7, 15] = np.float32(np.pi - 0.005)
    groups = _assert_groups_match_reference(E, O, 0.1)
    assert len(groups) == 1
    assert groups[0].pixels.shape[0] == 28 + 4


def test_edge_groups_split_exactly_at_the_corner_limit():
    limit = np.pi / 2 - 1e-6
    E = np.zeros((5, 12), dtype=np.float32)
    E[2, 1:11] = 1.0
    O = np.zeros((5, 12), dtype=np.float64)
    # one step of exactly the limit splits; one step just under it joins
    O[2, 4] = limit
    O[2, 8] = O[2, 7] + np.nextafter(limit, 0.0)
    O[2, 8:11] = O[2, 8]
    groups = _assert_groups_match_reference(E, O, 0.1)
    assert [g.bbox.as_tuple() for g in groups] == [(1, 2, 3, 1), (4, 2, 1, 1),
                                                   (5, 2, 6, 1)]
