"""Spectral clustering of proposals within a sub-sequence, streaming
sub-sequence management and cluster identity association via KL divergence."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .affinity import (HIST_BINS, N_HIST, ProductKDE, _fit_pca, _loo_correct,
                       silverman_bandwidths)
from .core import Box

KL_EPS = 1e-12
LOCAL_SCALE_KNN = 7      # self-tuning's local scale: the 7th neighbor's distance
DESCRIPTOR_MAX_DIM = 8   # PCA dimensions of a cluster descriptor


def make_subsequences(frame_count: int, length: int) -> list[list[int]]:
    """Split frame indices into length-L windows overlapping by one frame.

    Starts advance by L-1; the final window is truncated to the remaining
    frames and generation stops once the last frame is covered, so every
    tail still spans at least 2 frames.
    """
    if frame_count < 2:
        raise ValueError(f"need at least 2 frames, got {frame_count}")
    if not 2 <= length <= 8:
        raise ValueError(f"sub-sequence length must lie in [2, 8], got {length}")
    ranges: list[list[int]] = []
    start = 0
    while True:
        end = min(start + length, frame_count)
        ranges.append(list(range(start, end)))
        if end >= frame_count:
            break
        start = end - 1
    return ranges


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: iteratively sample centers with probability
    proportional to the squared distance to the nearest chosen center."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c:] = points[first]
            break
        probs = d2 / total
        idx = int(rng.choice(n, p=probs))
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


def _kmeans(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Lloyd's iterations from a k-means++ start, at most 100 of them, until
    no center moves by more than 1e-9."""
    centers = _kmeans_pp_init(points, k, rng)
    labels = np.zeros(points.shape[0], dtype=np.int64)
    for _ in range(100):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        new_centers = centers.copy()
        for c in range(k):
            members = points[labels == c]
            if members.shape[0]:
                new_centers[c] = members.mean(axis=0)
            else:
                # re-seed an empty cluster at the point farthest from its center
                far = int(d2.min(axis=1).argmax())
                new_centers[c] = points[far]
        shift = np.abs(new_centers - centers).max()
        centers = new_centers
        if shift <= 1e-9:
            break
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _normalized_affinity(W: np.ndarray) -> np.ndarray:
    """S = D^-1/2 W D^-1/2 of the symmetrized W, with degrees floored at 1e-12."""
    W = 0.5 * (W + W.T)
    inv_sqrt = 1.0 / np.sqrt(np.maximum(W.sum(axis=1), 1e-12))
    return inv_sqrt[:, None] * W * inv_sqrt[None, :]


def _spectral_embedding(S: np.ndarray, k: int) -> np.ndarray:
    """Row-normalized leading-k eigenvectors of a normalized affinity S."""
    vals, vecs = np.linalg.eigh(S)
    U = vecs[:, np.argsort(vals)[::-1][:k]]
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    return U / np.maximum(norms, 1e-12)


def spectral_cluster_fixed(W: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Normalized-cut style clustering into exactly k groups with seeded
    k-means++ initialization."""
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    if n < k:
        warnings.warn(f"only {n} points for k={k}: every point is its own cluster")
        return np.arange(n, dtype=np.int64)
    U = _spectral_embedding(_normalized_affinity(W), k)
    rng = np.random.default_rng(seed)
    return _kmeans(U, k, rng)


def _local_scales(d: np.ndarray) -> np.ndarray:
    """Each row's distance to its LOCAL_SCALE_KNN-th nearest finite entry (its
    farthest one if it has fewer), or 1.0 if it has none; inf sorts last."""
    count = np.isfinite(d).sum(axis=1)
    col = np.minimum(LOCAL_SCALE_KNN, np.maximum(count, 1)) - 1
    return np.where(count > 0, np.sort(d, axis=1)[np.arange(len(d)), col], 1.0)


def spectral_cluster_selftune(W: np.ndarray, max_clusters: int = 5,
                              seed: int = 0) -> np.ndarray:
    """Local-scaling spectral clustering with the cluster count chosen by the
    largest eigengap of the normalized Laplacian, capped at max_clusters.

    Pairwise distances are derived from the affinity matrix as
    sqrt(max(log W) - log W_ij); zero affinities are infinitely far.
    """
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    if n <= 1:
        return np.zeros(n, dtype=np.int64)
    with np.errstate(divide="ignore"):
        logw = np.log(np.maximum(W, 0.0))
    finite = logw[np.isfinite(logw)]
    top = finite.max() if finite.size else 0.0
    d2 = np.where(np.isfinite(logw), np.maximum(top - logw, 0.0), np.inf)

    # local scales, self excluded
    d = np.sqrt(d2)
    np.fill_diagonal(d, np.inf)
    sigma = np.maximum(_local_scales(d), 1e-9)

    A = np.exp(-d2 / (sigma[:, None] * sigma[None, :]))
    np.fill_diagonal(A, 0.0)

    S = _normalized_affinity(A)
    vals = np.sort(np.linalg.eigvalsh(np.eye(n) - 0.5 * (S + S.T)))
    k_hi = min(max_clusters, n)
    # eigengap judged against the mean of the preceding (inside-cluster)
    # eigenvalues: k clusters require lambda_0..lambda_{k-1} all small and a
    # large step after them; the floor keeps single connected clouds whole
    gaps = [(vals[k] - vals[k - 1]) / max(float(np.mean(vals[:k])), 0.1)
            for k in range(1, k_hi + 1) if k < n]
    if not gaps:
        return np.zeros(n, dtype=np.int64)
    k = int(np.argmax(gaps)) + 1
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    U = _spectral_embedding(S, k)
    rng = np.random.default_rng(seed)
    return _kmeans(U, k, rng)


def scale_features(features: np.ndarray) -> np.ndarray:
    """49-D descriptor space: histogram dims stretched 15x so one bin spans a
    range comparable to the normalized location dims."""
    scaled = np.array(features, dtype=np.float64)
    scaled[:, :N_HIST] *= HIST_BINS
    return scaled


@dataclass
class ClusterDescriptor:
    """Kernel-density summary of one cluster's members in a PCA basis."""

    raw: np.ndarray            # (n, 49) scaled feature rows
    mean: np.ndarray           # PCA center (49,)
    components: np.ndarray     # (dim, 49) orthonormal rows
    samples: np.ndarray        # (n, dim) projected members
    bandwidths: np.ndarray     # (dim,)
    kde: ProductKDE = field(repr=False, default=None)

    @property
    def size(self) -> int:
        return self.raw.shape[0]


# smallest descriptor bandwidth, in scaled feature units (one histogram bin
# spans 1). Trailing PCA coordinates of ~100 members carry render noise only;
# Silverman bandwidths there shrink below the noise between two renderings of
# the same object, so points fall outside the compact kernels' support and
# the KL estimate counts log(eps) for them.
BANDWIDTH_FLOOR = 0.25


def _project_with_residual(raw: np.ndarray, mean: np.ndarray,
                           comps: np.ndarray) -> np.ndarray:
    """Coordinates in a PCA basis plus the distance to its affine subspace.

    The residual keeps differences orthogonal to the basis visible; without
    it, a cluster whose variance misses a discriminating dimension would
    absorb arbitrarily different clusters in the KL comparison.
    """
    centered = raw - mean
    z = centered @ comps.T
    resid = np.linalg.norm(centered - z @ comps, axis=1)
    return np.concatenate([z, resid[:, None]], axis=1)


def _descriptor_kde(samples: np.ndarray) -> tuple[ProductKDE, np.ndarray]:
    bw = np.maximum(silverman_bandwidths(samples, dim=samples.shape[1]),
                    BANDWIDTH_FLOOR)
    return ProductKDE(samples, bw), bw


def cluster_descriptor(features: np.ndarray) -> ClusterDescriptor:
    """PCA-reduce a cluster's scaled feature rows to at most DESCRIPTOR_MAX_DIM
    dimensions and fit an Epanechnikov KDE (bandwidths floored at
    BANDWIDTH_FLOOR, so a singleton or a cluster of identical members still
    has a proper density)."""
    if len(features) == 0:
        raise ValueError("a cluster needs at least one member")
    raw = scale_features(features)
    n = raw.shape[0]
    dim = max(1, min(DESCRIPTOR_MAX_DIM, n - 1, raw.shape[1]))
    mean, comps = _fit_pca(raw, dim)
    samples = _project_with_residual(raw, mean, comps)
    kde, bw = _descriptor_kde(samples)
    return ClusterDescriptor(raw, mean, comps, samples, bw, kde)


def kl_divergence(p: ClusterDescriptor, q: ClusterDescriptor) -> float:
    """Monte Carlo KL(p || q) over p's members, evaluated in q's basis.

    Both densities are kernel estimates in q's projection (plus the residual
    coordinate), so descriptors fit in different bases stay comparable; the
    estimate is clamped at 0. p's density at its own members is taken
    leave-one-out: each member's own kernel peak would otherwise dominate
    log p in this many dimensions and inflate the divergence.
    """
    if p.size == 0 or q.size == 0:
        raise ValueError("descriptors must be non-empty")
    x = _project_with_residual(p.raw, q.mean, q.components)
    p_kde, _ = _descriptor_kde(x)
    p_x = p_kde.evaluate(x)
    if p.size > 1:
        p_x = _loo_correct(p_x, p_kde)
    log_p = np.log(np.maximum(p_x, KL_EPS))
    log_q = np.log(np.maximum(q.kde.evaluate(x), KL_EPS))
    return max(0.0, float(np.mean(log_p - log_q)))


@dataclass
class RegistryEntry:
    """A cluster's state between sub-sequences. ``box`` is a labelled
    cluster's last box and ``box_frame`` the frame it belongs to. ``offset``
    has no reader in the pipeline; it stays while ``record_offset``, which
    writes it, is traced by name by the benchmark."""

    descriptor: ClusterDescriptor
    label: str | None = None
    confidence: float = 0.0
    box: Box | None = None
    box_frame: int | None = None
    offset: np.ndarray | None = None   # localization offset d (4-vector)


class ClusterRegistry:
    """The clusters of the latest associated sub-sequence, by global id: the
    only ones the next sub-sequence's clusters can inherit from. Ids are
    never reused."""

    def __init__(self):
        self.entries: dict[int, RegistryEntry] = {}
        self._next_id = 0

    def new_id(self) -> int:
        gid = self._next_id
        self._next_id += 1
        return gid

    def __getitem__(self, gid: int) -> RegistryEntry:
        return self.entries[gid]

    def __len__(self) -> int:
        return len(self.entries)


def associate_clusters(descriptors: list[ClusterDescriptor],
                       registry: ClusterRegistry, tau_kl: float,
                       subseq_index: int) -> tuple[list[int], set[int]]:
    """Match current clusters to the registry's, those of the previous
    sub-sequence, then make the registry hold exactly the current ones.

    Greedy one-to-one matching in ascending KL order; a match below tau_kl
    inherits the global id together with its entry (label, confidence, and
    last box with its frame), everything else gets a fresh id. Ties break on
    the lower global id. Previous clusters left unmatched are dropped.
    Returns (global id per cluster, set of new ids).

    ``subseq_index`` is not read; it stays the fourth positional parameter
    because ``perfbench/tracing.py`` records it from there.
    """
    candidates = []
    for ci, desc in enumerate(descriptors):
        for gid, entry in registry.entries.items():
            kl = kl_divergence(desc, entry.descriptor)
            if kl < tau_kl:
                candidates.append((kl, gid, ci))
    candidates.sort(key=lambda t: (t[0], t[1], t[2]))

    previous, registry.entries = registry.entries, {}
    matched: dict[int, tuple[int, RegistryEntry]] = {}
    for kl, gid, ci in candidates:
        if ci not in matched and gid in previous:
            matched[ci] = (gid, previous.pop(gid))

    new_ids: set[int] = set()
    for ci, desc in enumerate(descriptors):
        if ci in matched:
            gid, entry = matched[ci]
            entry.descriptor = desc
        else:
            gid, entry = registry.new_id(), RegistryEntry(desc)
            new_ids.add(gid)
        registry.entries[gid] = entry
    return list(registry.entries), new_ids
