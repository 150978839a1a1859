"""Per-proposal features, joint density estimation over overlapping window
pairs, pointwise-mutual-information scores and the affinity matrix."""

from __future__ import annotations

import numpy as np

from .core import iou_matrix

HIST_BINS = 15
N_HIST = 3 * HIST_BINS          # 45 color dims
FEATURE_DIM = N_HIST + 4        # 49 total
DENSITY_EPS = 1e-12
RHO = 1.2   # PMI_rho's exponent on the joint density (Isola et al., ECCV 2014)


class DensityError(ValueError):
    """Raised when too few overlapping pairs exist to fit a density model."""


def extract_features(frame, boxes) -> np.ndarray:
    """(len(boxes), FEATURE_DIM) feature rows: each box's channel-normalized
    color histograms in columns [0, N_HIST) and its (cx, cy, h, w) over the
    frame dims in the last 4."""
    arr = np.asarray(frame)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError("expected an RGB frame of shape (h, w, 3)")
    h, w = arr.shape[:2]
    if arr.dtype != np.uint8:
        arr = np.clip(arr, 0, 255).astype(np.uint8)
    # the histogram column of every pixel and channel: channel offset plus bin
    bins = ((arr.astype(np.uint16) * HIST_BINS // 256).astype(np.uint8)
            + np.arange(0, N_HIST, HIST_BINS, dtype=np.uint8))
    features = np.empty((len(boxes), FEATURE_DIM), dtype=np.float64)
    for row, box in enumerate(boxes):
        if box.x < 0 or box.y < 0 or box.x2 > w or box.y2 > h:
            raise ValueError(f"box {box} outside {w}x{h} frame")
        patch = bins[box.y:box.y2, box.x:box.x2]
        features[row, :N_HIST] = (np.bincount(patch.ravel(), minlength=N_HIST)
                                  / (patch.size // 3))
        cx, cy = box.center
        features[row, N_HIST:] = (cx / w, cy / h, box.h / h, box.w / w)
    return features


def collect_pairs(proposals) -> np.ndarray:
    """(P, 2) int64 array of the index pairs i < j, in row-major order, whose
    boxes overlap by a positive pixel IoU across the sub-sequence.

    This is the one pair set of the PMI affinity: fit_density fits the joint
    density on these pairs, and affinity_matrix gives W entries to exactly
    them. Pairs with zero overlap carry no weight.
    """
    rects = np.array([p.box.as_tuple() for p in proposals], dtype=np.float64)
    return np.argwhere(np.triu(iou_matrix(rects, rects) > 0.0, 1))


def silverman_bandwidths(samples: np.ndarray, dim: int) -> np.ndarray:
    """Per-dimension plug-in rule h_d = 2.34 * sigma_d * n^(-1/(4+dim)),
    floored at 1e-6."""
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.shape[0]
    sigma = samples.std(axis=0, ddof=0)
    h = 2.34 * sigma * n ** (-1.0 / (4.0 + dim))
    return np.maximum(h, 1e-6)


def kernel_factor_matrix(points: np.ndarray, samples: np.ndarray,
                         bandwidths: np.ndarray) -> np.ndarray:
    """(m, n) matrix of product-Epanechnikov kernel values K(points_i - samples_k),
    normalization included."""
    points = np.asarray(points, dtype=np.float64)
    samples = np.asarray(samples, dtype=np.float64)
    out = np.full((points.shape[0], samples.shape[0]),
                  np.prod(0.75 / bandwidths), dtype=np.float64)
    for dim in range(points.shape[1]):
        u = (points[:, dim, None] - samples[None, :, dim]) / bandwidths[dim]
        out *= np.clip(1.0 - u * u, 0.0, None)
    return out


class ProductKDE:
    """Product-Epanechnikov kernel density over stored samples.

    Each dimension uses kernel 0.75 * (1 - t^2) on |t| <= 1 with its own
    bandwidth, so evaluations are proper densities (they integrate to one)
    and marginals over trailing dimensions are again product KDEs.
    """

    def __init__(self, samples: np.ndarray, bandwidths: np.ndarray):
        self.samples = np.asarray(samples, dtype=np.float64)
        if self.samples.ndim != 2 or self.samples.shape[0] == 0:
            raise ValueError("need a non-empty (n, d) sample matrix")
        self.bandwidths = np.asarray(bandwidths, dtype=np.float64)
        if self.bandwidths.shape != (self.samples.shape[1],):
            raise ValueError("one bandwidth per dimension required")
        self.n_samples = self.samples.shape[0]
        self._norm = np.prod(0.75 / self.bandwidths)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return kernel_factor_matrix(points, self.samples, self.bandwidths).mean(axis=1)


def _fit_pca(X: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row mean and the first dim principal axes of X, each signed so that
    its largest-magnitude entry is positive; zero rows fill missing axes."""
    mean = X.mean(axis=0)
    centered = X - mean
    if X.shape[0] > 1 and np.any(centered):
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        comps = vt[:dim]
        for r in range(comps.shape[0]):
            if comps[r, np.argmax(np.abs(comps[r]))] < 0:
                comps[r] = -comps[r]
        if comps.shape[0] < dim:
            comps = np.pad(comps, ((0, dim - comps.shape[0]), (0, 0)))
    else:
        comps = np.zeros((dim, X.shape[1]))
    return mean, comps


class FeatureProjector:
    """49-D feature rows -> 5-D: the 4 normalized location dims plus one color
    coordinate from the first principal direction of the histograms."""

    def __init__(self, features: np.ndarray):
        self.hist_mean, comps = _fit_pca(features[:, :N_HIST], 1)
        self.color_axis = comps[0]

    def project(self, features: np.ndarray) -> np.ndarray:
        color = (features[:, :N_HIST] - self.hist_mean) @ self.color_axis
        return np.concatenate([features[:, N_HIST:], color[:, None]], axis=1)


class PairKDE:
    """Exchange-symmetric 10-D product-Epanechnikov density over fitted pairs.

    The samples are the fitted pairs (points[i], points[j]) in both orders,
    kept as the 5-D points and the pair indices (ii, jj) rather than 2P
    sample rows. The kernel factorizes over the two blocks: with K(x) the
    block-kernel row of x against the fitted points and C the symmetric
    pair-count matrix, the density at (a, b) is K(a) C K(b)^T / n_samples,
    and the marginal of either block is K(a) C.sum(1) / n_samples, the exact
    marginal with the same bandwidths; the independence baseline P(A) P(B)
    is the product of two marginals.
    """

    def __init__(self, points: np.ndarray, pairs: np.ndarray,
                 block_bandwidths: np.ndarray):
        self.points = np.asarray(points, dtype=np.float64)
        self.ii, self.jj = np.asarray(pairs, dtype=np.int64).T
        self.block_bandwidths = np.asarray(block_bandwidths, dtype=np.float64)
        self.bandwidths = np.concatenate([self.block_bandwidths] * 2)
        self.n_samples = 2 * self.ii.size
        # C.sum(1): how many samples hold each fitted point in one block
        self.weights = np.bincount(np.concatenate([self.ii, self.jj]),
                                   minlength=self.points.shape[0]).astype(np.float64)
        self._norm = np.prod(0.75 / self.bandwidths)

    def pair_counts(self) -> np.ndarray:
        """Symmetric (n, n) C: C[i, j] samples hold points[i] in the first
        block and points[j] in the second."""
        n = self.points.shape[0]
        c = np.bincount(self.ii * n + self.jj, minlength=n * n).reshape(n, n)
        return (c + c.T).astype(np.float64)

    def factors(self, points: np.ndarray) -> np.ndarray:
        """(m, n) block-kernel values of 5-D points against the fitted points."""
        return kernel_factor_matrix(points, self.points, self.block_bandwidths)


def fit_density(pairs: np.ndarray, features: np.ndarray) -> PairKDE:
    """Epanechnikov joint density over the (P, 2) index pairs from
    collect_pairs, in the projected space of the feature rows.

    The pairs are stored as given in the joint, and they are the pairs
    affinity_matrix scores. Each pair counts in both orders, which makes the
    joint exchange-symmetric. Bandwidths follow the plug-in rule over the 2P
    samples of one block with the joint's dimension 10, taking the larger of
    the two block orders per dimension, so both blocks (and the marginal)
    share them.
    """
    if len(pairs) < 2:
        raise DensityError(
            f"need at least 2 overlapping pairs to fit a density, got "
            f"{len(pairs)}; fall back to a uniform affinity")
    proj = FeatureProjector(features).project(features)
    pairs = np.asarray(pairs, dtype=np.int64)
    ii, jj = pairs.T
    dim = 2 * proj.shape[1]
    # the two sample blocks hold the same rows in two orders, whose standard
    # deviations differ in rounding only
    bw_block = np.maximum(
        silverman_bandwidths(proj[np.concatenate([ii, jj])], dim=dim),
        silverman_bandwidths(proj[np.concatenate([jj, ii])], dim=dim))
    return PairKDE(proj, pairs, bw_block)


def _loo_correct(values: np.ndarray, kde: ProductKDE | PairKDE) -> np.ndarray:
    """Remove one self-kernel from density values evaluated at the KDE's own
    sample points: without this, a point with no similar samples still sees
    its own kernel peak and gets a spuriously confident density."""
    n = kde.n_samples
    return np.maximum((n * values - kde._norm) / (n - 1), 0.0)


def affinity_matrix(features: np.ndarray, joint: PairKDE) -> np.ndarray:
    """Symmetric non-negative W with W_ij = exp(PMI_rho(f_i, f_j)), the joint
    density raised to RHO over the product of the marginals, for the pairs
    the joint was fitted on, 0 for every other pair, and the row maximum on
    the diagonal. features must be the rows the joint was fitted on.

    Every pair is evaluated at once on the fitted points: with Kn their
    block-kernel matrix and C the pair counts, the joint density at all pairs
    is Kn C Kn^T / n_samples and the marginals are Kn C.sum(1) / n_samples.
    The joint is leave-one-out corrected, as each scored pair is one of the
    fitted samples.
    """
    n = joint.points.shape[0]
    if len(features) != n:
        raise ValueError(f"the joint was fitted on {n} features, got {len(features)}")
    kn = joint.factors(joint.points)
    density = kn @ joint.pair_counts() @ kn.T / joint.n_samples
    m = kn @ joint.weights / joint.n_samples
    ii, jj = joint.ii, joint.jj
    pj = np.log(np.maximum(_loo_correct(density[ii, jj], joint), DENSITY_EPS))
    pab = np.log(np.maximum(m[ii] * m[jj], DENSITY_EPS))
    vals = np.exp(RHO * pj - pab)
    W = np.zeros((n, n), dtype=np.float64)
    W[ii, jj] = vals
    W[jj, ii] = vals
    W[np.arange(n), np.arange(n)] = W.max(axis=1)
    return W
