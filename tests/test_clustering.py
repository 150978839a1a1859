import numpy as np
import pytest

from streamdet import clustering
from streamdet.clustering import (ClusterRegistry, associate_clusters,
                                  cluster_descriptor, kl_divergence,
                                  make_subsequences, spectral_cluster_fixed,
                                  spectral_cluster_selftune)


def test_subsequences_nine_frames_l3():
    assert make_subsequences(9, 3) == [[0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8]]


def test_subsequences_exact_single():
    assert make_subsequences(3, 3) == [[0, 1, 2]]


def test_subsequences_truncated_tail():
    assert make_subsequences(11, 4) == [[0, 1, 2, 3], [3, 4, 5, 6],
                                        [6, 7, 8, 9], [9, 10]]


def test_subsequences_cover_and_overlap():
    for n in range(4, 30):
        for length in (3, 4, 5):
            ranges = make_subsequences(n, length)
            seen = set()
            for r in ranges:
                assert len(r) >= 2
                seen.update(r)
            assert seen == set(range(n))
            for a, b in zip(ranges, ranges[1:]):
                assert len(set(a) & set(b)) == 1
                assert a[-1] == b[0]


def test_subsequences_validation():
    with pytest.raises(ValueError):
        make_subsequences(1, 3)
    with pytest.raises(ValueError):
        make_subsequences(10, 1)
    with pytest.raises(ValueError):
        make_subsequences(10, 9)


def _block_affinity(sizes, strong=1.0, weak=0.0, rng=None):
    n = sum(sizes)
    W = np.full((n, n), weak, dtype=np.float64)
    start = 0
    for s in sizes:
        W[start:start + s, start:start + s] = strong
        start += s
    if rng is not None:
        W += rng.random((n, n)) * 1e-6
        W = 0.5 * (W + W.T)
    return W


def _purity(labels, truth):
    from collections import Counter
    total = 0
    for lab in set(labels):
        members = [truth[i] for i in range(len(labels)) if labels[i] == lab]
        total += Counter(members).most_common(1)[0][1]
    return total / len(labels)


def test_fixed_spectral_separates_blocks():
    W = _block_affinity([8, 12])
    labels = spectral_cluster_fixed(W, 2, seed=0)
    truth = [0] * 8 + [1] * 12
    assert _purity(labels, truth) == 1.0
    assert len(set(labels.tolist())) == 2


def test_fixed_spectral_permutation_consistent():
    rng = np.random.default_rng(0)
    W = _block_affinity([6, 6, 6], rng=rng)
    labels = spectral_cluster_fixed(W, 3, seed=1)
    perm = rng.permutation(18)
    labels_p = spectral_cluster_fixed(W[np.ix_(perm, perm)], 3, seed=1)
    # same partition up to relabeling
    for i in range(18):
        for j in range(18):
            same_orig = labels[perm[i]] == labels[perm[j]]
            same_perm = labels_p[i] == labels_p[j]
            assert same_orig == same_perm


def test_fixed_spectral_gaussian_blobs():
    rng = np.random.default_rng(3)
    pts = np.concatenate([rng.normal((0, 0), 0.3, (30, 2)),
                          rng.normal((5, 0), 0.3, (30, 2)),
                          rng.normal((0, 5), 0.3, (30, 2))])
    d2 = ((pts[:, None] - pts[None, :]) ** 2).sum(axis=2)
    W = np.exp(-d2 / 2.0)
    labels = spectral_cluster_fixed(W, 3, seed=0)
    truth = [0] * 30 + [1] * 30 + [2] * 30
    assert _purity(labels, truth) >= 0.95


def test_fixed_spectral_small_n_warns():
    with pytest.warns(UserWarning):
        labels = spectral_cluster_fixed(np.ones((3, 3)), 5)
    assert labels.tolist() == [0, 1, 2]


def test_selftune_two_blobs():
    rng = np.random.default_rng(4)
    pts = np.concatenate([rng.normal((0, 0), 0.3, (25, 2)),
                          rng.normal((6, 0), 0.3, (25, 2))])
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    labels = spectral_cluster_selftune(np.exp(-dist ** 2), seed=0)
    truth = [0] * 25 + [1] * 25
    assert len(set(labels.tolist())) == 2
    assert _purity(labels, truth) == 1.0


def test_selftune_single_blob():
    rng = np.random.default_rng(5)
    pts = rng.normal((0, 0), 0.5, (40, 2))
    dist = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(axis=2))
    labels = spectral_cluster_selftune(np.exp(-dist ** 2), seed=0)
    assert len(set(labels.tolist())) == 1


def test_selftune_identical_points():
    dist = np.zeros((2, 2))
    labels = spectral_cluster_selftune(np.exp(-dist ** 2), seed=0)
    assert labels.tolist() == [0, 0]


def _row_loop_local_scales(d, knn):
    """Reference: each row's finite distances sorted, one row at a time."""
    sigma = np.empty(len(d))
    for i in range(len(d)):
        finite = np.sort(d[i][np.isfinite(d[i])])
        sigma[i] = finite[min(knn - 1, finite.size - 1)] if finite.size else 1.0
    return sigma


@pytest.mark.parametrize("knn", [1, 3, 7])
def test_local_scales_match_the_row_loop(monkeypatch, knn):
    monkeypatch.setattr(clustering, "LOCAL_SCALE_KNN", knn)
    rng = np.random.default_rng(knn)
    for _ in range(150):
        n = int(rng.integers(1, 25))
        d = rng.integers(0, 6, size=(n, n)) * rng.random()    # ties included
        d[rng.random((n, n)) < rng.random()] = np.inf          # zero affinities
        np.fill_diagonal(d, np.inf)
        assert np.array_equal(clustering._local_scales(d), _row_loop_local_scales(d, knn))


def _fv(rng, center, color_bin, jitter=0.03):
    hist = np.zeros(45)
    for c in range(3):
        hist[c * 15 + color_bin[c]] = 1.0
    loc = np.array([center[0] + rng.normal(0, jitter),
                    center[1] + rng.normal(0, jitter),
                    0.3 + rng.normal(0, jitter / 2),
                    0.3 + rng.normal(0, jitter / 2)])
    return np.concatenate([hist, loc])


def _cloud(rng, n, center, color_bin, jitter=0.03):
    return np.array([_fv(rng, center, color_bin, jitter) for _ in range(n)])


def test_descriptor_identical_members():
    rng = np.random.default_rng(6)
    f = _fv(rng, (0.5, 0.5), (7, 7, 7), jitter=0.0)
    desc = cluster_descriptor(np.array([f] * 5))
    assert kl_divergence(desc, desc) == pytest.approx(0.0, abs=1e-9)


def test_descriptor_dimension_bound():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 12, 40):
        feats = _cloud(rng, n, (0.4, 0.6), (3, 8, 12))
        desc = cluster_descriptor(feats)
        dim = max(1, min(8, n - 1))
        assert desc.components.shape == (dim, 49)
        # projected coordinates plus the off-basis residual column
        assert desc.samples.shape == (n, dim + 1)


def test_descriptor_mean_location():
    rng = np.random.default_rng(8)
    feats = _cloud(rng, 50, (0.42, 0.58), (2, 9, 13), jitter=0.02)
    desc = cluster_descriptor(feats)
    mean_loc = desc.raw[:, 45:47].mean(axis=0)
    assert abs(mean_loc[0] - 0.42) <= 0.042
    assert abs(mean_loc[1] - 0.58) <= 0.058


def test_kl_self_small():
    rng = np.random.default_rng(9)
    feats = _cloud(rng, 30, (0.5, 0.5), (4, 4, 4))
    desc = cluster_descriptor(feats)
    assert kl_divergence(desc, desc) < 0.05


def test_kl_separated_clouds_large():
    rng = np.random.default_rng(10)
    a = cluster_descriptor(_cloud(rng, 30, (0.2, 0.2), (12, 2, 2)))
    b = cluster_descriptor(_cloud(rng, 30, (0.8, 0.8), (2, 2, 12)))
    assert kl_divergence(a, b) > 5.0


def test_kl_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = cluster_descriptor(_cloud(rng, 12, rng.random(2), (3, 6, 9), 0.1))
        b = cluster_descriptor(_cloud(rng, 12, rng.random(2), (3, 6, 9), 0.1))
        assert kl_divergence(a, b) >= 0.0


def test_kl_matches_gaussian_reference():
    # matched synthetic data: two well-separated Gaussians have analytic
    # KL >> tau; nearby ones have small KL
    rng = np.random.default_rng(12)
    near_a = cluster_descriptor(_cloud(rng, 40, (0.50, 0.50), (5, 5, 5), 0.04))
    near_b = cluster_descriptor(_cloud(rng, 40, (0.52, 0.50), (5, 5, 5), 0.04))
    far_c = cluster_descriptor(_cloud(rng, 40, (0.50, 0.50), (13, 1, 1), 0.04))
    assert kl_divergence(near_a, near_b) < 2.0
    assert kl_divergence(near_a, far_c) > 5.0


def test_associate_first_subsequence_all_new():
    rng = np.random.default_rng(13)
    reg = ClusterRegistry()
    descs = [cluster_descriptor(_cloud(rng, 10, (0.3, 0.3), (9, 2, 2))),
             cluster_descriptor(_cloud(rng, 10, (0.7, 0.7), (2, 9, 2)))]
    gids, new = associate_clusters(descs, reg, tau_kl=2.0, subseq_index=0)
    assert gids == [0, 1]
    assert new == {0, 1}


def test_associate_identical_clusters_inherit():
    rng = np.random.default_rng(14)
    feats_a = _cloud(rng, 12, (0.3, 0.3), (9, 2, 2))
    feats_b = _cloud(rng, 12, (0.7, 0.7), (2, 9, 2))
    reg = ClusterRegistry()
    gids0, _ = associate_clusters([cluster_descriptor(feats_a),
                                   cluster_descriptor(feats_b)],
                                  reg, 2.0, 0)
    gids1, new1 = associate_clusters([cluster_descriptor(feats_a),
                                      cluster_descriptor(feats_b)],
                                     reg, 2.0, 1)
    assert gids1 == gids0
    assert new1 == set()


def test_associate_exit_and_enter():
    rng = np.random.default_rng(15)
    stay = _cloud(rng, 12, (0.3, 0.3), (9, 2, 2))
    leaving = _cloud(rng, 12, (0.7, 0.7), (2, 9, 2))
    entering = _cloud(rng, 12, (0.7, 0.3), (2, 2, 9))
    reg = ClusterRegistry()
    gids0, _ = associate_clusters([cluster_descriptor(stay),
                                   cluster_descriptor(leaving)], reg, 2.0, 0)
    gids1, new1 = associate_clusters([cluster_descriptor(stay),
                                      cluster_descriptor(entering)], reg, 2.0, 1)
    assert gids1[0] == gids0[0]          # surviving object keeps its id
    assert gids1[1] not in gids0         # newcomer gets a fresh id
    assert len(new1) == 1
    # the leaver's id is retired: the registry keeps only the current clusters
    assert gids0[1] not in reg.entries
    assert list(reg.entries) == gids1


def test_associate_one_to_one():
    rng = np.random.default_rng(16)
    base = _cloud(rng, 14, (0.5, 0.5), (6, 6, 6))
    reg = ClusterRegistry()
    associate_clusters([cluster_descriptor(base)], reg, 2.0, 0)
    # two near-identical current clusters compete for one previous id
    half_a = cluster_descriptor(base[:7])
    half_b = cluster_descriptor(base[7:])
    gids, new = associate_clusters([half_a, half_b], reg, 5.0, 1)
    assert len(set(gids)) == 2
    assert len(new) == 1


def test_kl_two_draws_of_one_cloud_small():
    # two renderings of one object differ only by noise: association must
    # not hinge on which draw came first
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = cluster_descriptor(_cloud(rng, 120, (0.5, 0.5), (4, 4, 4), 0.05))
        b = cluster_descriptor(_cloud(rng, 120, (0.5, 0.5), (4, 4, 4), 0.05))
        assert kl_divergence(a, b) < 0.5
        assert kl_divergence(b, a) < 0.5


def test_kl_matches_leave_one_out_oracle():
    from streamdet.affinity import ProductKDE
    from streamdet.clustering import (KL_EPS, _descriptor_kde,
                                      _project_with_residual)

    rng = np.random.default_rng(14)
    p = cluster_descriptor(_cloud(rng, 25, (0.45, 0.5), (5, 5, 5), 0.05))
    q = cluster_descriptor(_cloud(rng, 25, (0.55, 0.5), (5, 5, 5), 0.05))
    x = _project_with_residual(p.raw, q.mean, q.components)
    _, bw = _descriptor_kde(x)
    log_p = [np.log(max(ProductKDE(np.delete(x, i, axis=0), bw).evaluate(x[i])[0],
                        KL_EPS)) for i in range(len(x))]
    log_q = np.log(np.maximum(q.kde.evaluate(x), KL_EPS))
    expected = float(np.mean(np.array(log_p) - log_q))
    assert expected > 0.1
    assert kl_divergence(p, q) == pytest.approx(expected, rel=1e-9)


def test_descriptor_bandwidth_floor():
    from streamdet.affinity import silverman_bandwidths
    from streamdet.clustering import BANDWIDTH_FLOOR

    rng = np.random.default_rng(15)
    desc = cluster_descriptor(_cloud(rng, 60, (0.5, 0.5), (3, 8, 12), 0.02))
    silverman = silverman_bandwidths(desc.samples, dim=desc.samples.shape[1])
    assert np.any(silverman < BANDWIDTH_FLOOR)
    assert np.array_equal(desc.bandwidths, np.maximum(silverman, BANDWIDTH_FLOOR))
    assert np.array_equal(desc.kde.bandwidths, desc.bandwidths)
