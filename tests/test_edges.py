import numpy as np
import pytest

from streamdet.edges import (combine_edges, combined_orientation, edge_groups,
                             spatial_edge)


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
