import numpy as np
import pytest

from streamdet.affinity import (DENSITY_EPS, RHO, DensityError,
                                FeatureProjector, ProductKDE, affinity_matrix,
                                collect_pairs, extract_features, fit_density)
from streamdet.core import Box
from streamdet.proposals import Proposal


def _feature(rng, loc=None, hot_bin=None):
    """One feature row: 45 histogram columns, then 4 location columns."""
    hist = np.zeros(45)
    for c in range(3):
        if hot_bin is not None:
            idx = hot_bin[c]
            hist[c * 15 + idx] = 1.0
        else:
            block = rng.random(15) + 1e-3
            hist[c * 15:(c + 1) * 15] = block / block.sum()
    if loc is None:
        loc = rng.random(4) * 0.8 + 0.1
    return np.concatenate([hist, np.asarray(loc, dtype=np.float64)])


def _overlapping_features(rng, n, center, color_bins, jitter=0.05):
    feats = []
    for _ in range(n):
        cx = center[0] + rng.normal(0, jitter)
        cy = center[1] + rng.normal(0, jitter)
        h = 0.3 + rng.normal(0, jitter / 2)
        w = 0.3 + rng.normal(0, jitter / 2)
        feats.append(_feature(rng, loc=[cx, cy, h, w], hot_bin=color_bins))
    return np.array(feats)


def test_extract_uniform_red_patch():
    frame = np.zeros((20, 20, 3), dtype=np.uint8)
    frame[...] = (250, 3, 3)
    fv = extract_features(frame, [Box(2, 2, 10, 10)])[0]
    red = fv[:15]
    green = fv[15:30]
    blue = fv[30:45]
    assert red[-1] == pytest.approx(1.0)
    assert green[0] == pytest.approx(1.0)
    assert blue[0] == pytest.approx(1.0)


def test_extract_histograms_normalized():
    rng = np.random.default_rng(0)
    frame = rng.integers(0, 256, size=(30, 40, 3), dtype=np.uint8)
    fv = extract_features(frame, [Box(5, 3, 22, 17)])[0]
    for c in range(3):
        assert fv[c * 15:(c + 1) * 15].sum() == pytest.approx(1.0, abs=1e-9)


def test_extract_half_red_half_blue():
    frame = np.zeros((16, 16, 3), dtype=np.uint8)
    frame[:, :8] = (255, 0, 0)
    frame[:, 8:] = (0, 0, 255)
    fv = extract_features(frame, [Box(0, 0, 16, 16)])[0]
    red = fv[:15]
    blue = fv[30:45]
    assert red[-1] == pytest.approx(0.5) and red[0] == pytest.approx(0.5)
    assert blue[-1] == pytest.approx(0.5) and blue[0] == pytest.approx(0.5)


def test_extract_location_normalization():
    frame = np.zeros((50, 100, 3), dtype=np.uint8)
    fv = extract_features(frame, [Box(10, 5, 20, 30)])[0]
    assert fv[45:] == pytest.approx([0.2, 0.4, 0.6, 0.2])


def _reference_row(frame, box):
    """One box's feature row, computed channel by channel on its own patch."""
    h, w = frame.shape[:2]
    patch = np.clip(frame[box.y:box.y2, box.x:box.x2].reshape(-1, 3), 0, 255)
    bins = (patch.astype(np.uint8).astype(np.int64) * 15) // 256
    hist = [np.bincount(bins[:, c], minlength=15) / len(bins) for c in range(3)]
    cx, cy = box.center
    return np.concatenate(hist + [[cx / w, cy / h, box.h / h, box.w / w]])


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_extract_matches_per_box_reference(dtype):
    rng = np.random.default_rng(15)
    values = rng.random((36, 52, 3)) * 300 - 20
    frame = values if dtype is np.float64 else np.clip(values, 0, 255).astype(dtype)
    boxes = [Box(int(rng.integers(0, 40)), int(rng.integers(0, 30)),
                 int(rng.integers(1, 13)), int(rng.integers(1, 7)))
             for _ in range(25)]
    expected = np.array([_reference_row(frame, b) for b in boxes])
    assert np.array_equal(extract_features(frame, boxes), expected)
    assert extract_features(frame, []).shape == (0, 49)


def test_extract_box_outside_frame():
    frame = np.zeros((20, 20, 3), dtype=np.uint8)
    with pytest.raises(ValueError):
        extract_features(frame, [Box(15, 15, 10, 10)])


def _props(boxes):
    return [Proposal(Box(*b), 1.0, 0) for b in boxes]


def test_collect_pairs_disjoint():
    props = _props([(0, 0, 10, 10), (30, 30, 5, 5)])
    pairs = collect_pairs(props)
    assert pairs.shape == (0, 2) and pairs.dtype == np.int64


def test_collect_pairs_identical_boxes():
    props = _props([(4, 4, 8, 8), (4, 4, 8, 8)])
    pairs = collect_pairs(props)
    assert pairs.tolist() == [[0, 1]]


def test_collect_pairs_mutual_overlap_count():
    n = 7
    props = _props([(i, i, 20, 20) for i in range(n)])
    pairs = collect_pairs(props)
    assert len(pairs) == n * (n - 1) // 2


def test_fit_density_too_few_pairs():
    rng = np.random.default_rng(1)
    feats = np.array([_feature(rng), _feature(rng)])
    with pytest.raises(DensityError, match="uniform"):
        fit_density([(0, 1)], feats)


def test_fit_density_identical_pairs_peak():
    rng = np.random.default_rng(2)
    f = _feature(rng, loc=[0.5, 0.5, 0.3, 0.3], hot_bin=(7, 7, 7))
    feats = np.array([f] * 6)
    pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    joint, _, project = _oracle(feats, pairs)
    proj = project(feats)
    at_peak = joint.evaluate(np.concatenate([proj[0], proj[1]])[None, :])[0]
    rng2 = np.random.default_rng(3)
    off_points = np.concatenate([proj[0], proj[1]])[None, :] + rng2.normal(0, 0.5, (20, 10))
    off = joint.evaluate(off_points)
    assert at_peak >= off.max()
    assert np.all(off >= 0.0)


def test_fit_density_two_blobs():
    rng = np.random.default_rng(4)
    blob_a = _overlapping_features(rng, 40, (0.3, 0.3), (12, 2, 2))
    blob_b = _overlapping_features(rng, 40, (0.7, 0.7), (2, 2, 12))
    feats = np.concatenate([blob_a, blob_b])
    pairs = []
    for i in range(40):
        for j in range(i + 1, 40):
            pairs.append((i, j))
            pairs.append((40 + i, 40 + j))
    joint, _, project = _oracle(feats, pairs)
    proj = project(feats)
    intra = np.concatenate([proj[0], proj[1]])[None, :]
    inter = np.concatenate([proj[0], proj[41]])[None, :]
    assert joint.evaluate(intra)[0] > joint.evaluate(inter)[0]


def _pmi(feats, pairs, a, b, rho=RHO):
    """log(P(A,B)^rho / (P(A) P(B))) of feature row pairs (a[k], b[k]) from
    the density fitted on feats and pairs, each floored at DENSITY_EPS."""
    joint, marginal, project = _oracle(feats, pairs)
    pa = project(a)
    pb = project(b)
    pj = joint.evaluate(np.concatenate([pa, pb], axis=1))
    pab = marginal.evaluate(pa) * marginal.evaluate(pb)
    return (rho * np.log(np.maximum(pj, DENSITY_EPS))
            - np.log(np.maximum(pab, DENSITY_EPS)))


def test_pmi_independence_near_zero():
    # reduced-scale smoke check; the full 1e4-sample bound runs in acceptance
    rng = np.random.default_rng(6)
    n = 3000
    feats = np.array([_feature(rng) for _ in range(2 * n)])
    pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    rng.random(n)  # fixed draw order: the fresh features follow these n draws
    fresh = np.array([_feature(rng) for _ in range(800)])
    vals = _pmi(feats, pairs, fresh[0::2], fresh[1::2], rho=1.0)
    assert abs(np.mean(vals)) < 0.15


def test_pmi_correlated_exceeds_unrelated():
    rng = np.random.default_rng(7)
    feats = _overlapping_features(rng, 60, (0.4, 0.4), (10, 3, 3), jitter=0.1)
    pairs = []
    for i in range(0, 60, 2):
        pairs.append((i, i + 1))
    near = _pmi(feats, pairs, feats[[0]], feats[[1]])[0]
    far_feature = _feature(rng, loc=[0.9, 0.9, 0.1, 0.1], hot_bin=(1, 12, 1))
    far = _pmi(feats, pairs, feats[[0]], far_feature[None, :])[0]
    assert near > far


def test_affinity_matrix_properties():
    rng = np.random.default_rng(8)
    feats = _overlapping_features(rng, 20, (0.5, 0.5), (8, 8, 8), jitter=0.08)
    pairs = collect_pairs_from_locations(feats)
    W = affinity_matrix(feats, fit_density(pairs, feats))
    assert np.array_equal(W, W.T)
    assert np.all(W >= 0.0)
    assert np.allclose(np.diag(W), W.max(axis=1))


def collect_pairs_from_locations(feats):
    """Pairs via the geometry stored in the feature rows themselves."""
    from streamdet.core import iou_matrix
    loc = feats[:, 45:]
    rects = np.stack([loc[:, 0] - loc[:, 3] / 2, loc[:, 1] - loc[:, 2] / 2,
                      loc[:, 3], loc[:, 2]], axis=1)
    overlaps = iou_matrix(rects, rects)
    return np.argwhere(np.triu(overlaps > 0, 1))


def test_affinity_color_separated_objects():
    rng = np.random.default_rng(9)
    red = _overlapping_features(rng, 25, (0.33, 0.5), (12, 2, 2), jitter=0.06)
    blue = _overlapping_features(rng, 25, (0.63, 0.5), (2, 2, 12), jitter=0.06)
    feats = np.concatenate([red, blue])
    pairs = collect_pairs_from_locations(feats)
    W = affinity_matrix(feats, fit_density(pairs, feats))
    n = 25
    intra = np.concatenate([W[:n, :n][np.triu_indices(n, 1)],
                            W[n:, n:][np.triu_indices(n, 1)]])
    inter = W[:n, n:].ravel()
    inter_pos = inter[inter > 0]
    assert intra.mean() > inter_pos.mean() if inter_pos.size else intra.mean() > 0


def _explicit_samples(joint, pairs):
    """The 2P joint sample rows the pair density stands for: each fitted pair
    in both orders."""
    proj = joint.points
    ii, jj = np.asarray(pairs).T
    fwd = np.concatenate([proj[ii], proj[jj]], axis=1)
    bwd = np.concatenate([proj[jj], proj[ii]], axis=1)
    return np.concatenate([fwd, bwd], axis=0)


def _oracle(feats, pairs):
    """The density fitted on feats and pairs as explicit-sample product KDEs:
    the 10-D joint, its 5-D marginal and the projection of feature rows."""
    joint = fit_density(pairs, feats)
    samples = _explicit_samples(joint, pairs)
    return (ProductKDE(samples, joint.bandwidths),
            ProductKDE(samples[:, :5], joint.block_bandwidths),
            FeatureProjector(feats).project)


def test_fit_density_bandwidths_match_explicit_samples():
    from streamdet.affinity import silverman_bandwidths
    rng = np.random.default_rng(13)
    feats = np.array([_feature(rng) for _ in range(50)])
    pairs = [(int(i), int(j))
             for i, j in rng.integers(0, 50, size=(300, 2)) if i != j]
    joint = fit_density(pairs, feats)
    bw = silverman_bandwidths(_explicit_samples(joint, pairs), dim=10)
    block = np.maximum(bw[:5], bw[5:])
    assert np.array_equal(joint.block_bandwidths, block)
    assert np.array_equal(joint.bandwidths, np.concatenate([block, block]))


def test_affinity_matrix_matches_per_pair_oracle():
    rng = np.random.default_rng(11)
    red = _overlapping_features(rng, 20, (0.35, 0.5), (12, 2, 2), jitter=0.08)
    blue = _overlapping_features(rng, 20, (0.6, 0.5), (2, 2, 12), jitter=0.08)
    feats = np.concatenate([red, blue])
    pairs = collect_pairs_from_locations(feats)
    W = affinity_matrix(feats, fit_density(pairs, feats))

    joint, marginal, project = _oracle(feats, pairs)
    proj = project(feats)
    n_s = joint.n_samples
    expected = np.zeros_like(W)
    for i, j in pairs:
        pj = joint.evaluate(np.concatenate([proj[i], proj[j]])[None, :])[0]
        pj = max((n_s * pj - joint._norm) / (n_s - 1), 0.0)  # leave one out
        pa, pb = marginal.evaluate(proj[[i, j]])
        val = np.exp(RHO * np.log(max(pj, 1e-12)) - np.log(max(pa * pb, 1e-12)))
        expected[i, j] = expected[j, i] = val
    np.fill_diagonal(expected, expected.max(axis=1))
    assert np.count_nonzero(expected) > len(feats)
    assert np.allclose(W, expected, rtol=1e-9, atol=0.0)


def test_collect_pairs_matches_row_loop():
    from streamdet.core import iou
    rng = np.random.default_rng(12)
    boxes = [(int(rng.integers(0, 40)), int(rng.integers(0, 40)),
              int(rng.integers(2, 20)), int(rng.integers(2, 20)))
             for _ in range(60)]
    props = _props(boxes)
    expected = []
    for i in range(len(props)):
        for j in range(i + 1, len(props)):
            if iou(props[i].box, props[j].box) > 0.0:
                expected.append([i, j])
    pairs = collect_pairs(props)
    assert pairs.tolist() == expected


def test_affinity_support_is_the_fitted_pair_set():
    # boxes 0 and 1 only touch: pixel IoU 0, but their normalised rects
    # overlap by about 1e-16 in floating point
    rng = np.random.default_rng(14)
    frame = rng.integers(0, 256, size=(72, 96, 3), dtype=np.uint8)
    boxes = [(10, 1, 20, 5), (10, 6, 20, 5),
             (40, 20, 20, 20), (45, 25, 20, 20), (50, 30, 20, 20)]
    props = _props(boxes)
    feats = extract_features(frame, [p.box for p in props])
    pairs = collect_pairs(props)
    assert len(pairs) >= 2
    W = affinity_matrix(feats, fit_density(pairs, feats))
    assert W[0, 1] == 0.0 and W[1, 0] == 0.0
    off_diagonal = W - np.diag(np.diag(W))
    assert np.argwhere(np.triu(off_diagonal != 0.0, 1)).tolist() == pairs.tolist()
    assert np.array_equal(off_diagonal != 0.0, (off_diagonal != 0.0).T)
