"""Spatial edge detection, spatio-temporal edge combination, edge thinning
and edge grouping.

The combined map is thinned across the edge before it is grouped (EdgeBoxes'
first step, Zitnick & Dollar, ECCV 2014, section 3): groups grow on the
one-pixel ridges of the thinned map, not on the band that smoothing spreads
over several pixels on each side of a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from .core import Box, as_field

# Scharr 3x3 derivative stencil; scale cancels after normalization.
_SCHARR_X = np.array([[-3, 0, 3], [-10, 0, 10], [-3, 0, 3]], dtype=np.float64) / 32.0
_SCHARR_Y = _SCHARR_X.T

SMOOTH_SIGMA = 1.5      # Gaussian smoothing before the derivatives
EDGE_THRESHOLD = 0.1    # least edge magnitude that groups and box scores count


def to_gray(frame) -> np.ndarray:
    """Luma in [0, 1] from an RGB or grayscale frame (uint8 or float)."""
    arr = np.asarray(frame)
    if arr.ndim == 3:
        arr = arr.astype(np.float64)
        arr = 0.299 * arr[..., 0] + 0.587 * arr[..., 1] + 0.114 * arr[..., 2]
    else:
        arr = arr.astype(np.float64)
    if arr.max() > 1.0:
        arr = arr / 255.0
    return arr.astype(np.float32)


def _convolve3(field, kernel):
    from scipy.ndimage import convolve
    return convolve(field.astype(np.float64), kernel, mode="nearest")


def _gradients(field, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Scharr derivatives (gx, gy) of a field after Gaussian smoothing."""
    smooth = gaussian_filter(np.asarray(field, dtype=np.float64), sigma, mode="nearest")
    return _convolve3(smooth, _SCHARR_X), _convolve3(smooth, _SCHARR_Y)


def spatial_edge(frame, sigma: float = SMOOTH_SIGMA):
    """Gradient-magnitude edge map of a frame plus per-pixel edge orientation.

    Returns (magnitude, orientation): magnitude is normalized to [0, 1],
    orientation is the gradient (edge normal) angle in [0, pi).
    """
    gx, gy = _gradients(to_gray(frame), sigma)
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak > 0:
        mag = mag / peak
    orient = np.mod(np.arctan2(gy, gx), np.pi)
    return mag.astype(np.float32), orient.astype(np.float32)


def orientation_of(field, sigma: float = SMOOTH_SIGMA) -> np.ndarray:
    """Gradient-direction angles in [0, pi) for an arbitrary scalar field."""
    gx, gy = _gradients(field, sigma)
    return np.mod(np.arctan2(gy, gx), np.pi).astype(np.float32)


def combine_edges(es, et, lam: float) -> np.ndarray:
    """Pointwise convex combination lam * et + (1 - lam) * es."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    es = as_field(es)
    et = as_field(et)
    if es.shape != et.shape:
        raise ValueError(f"edge maps disagree in shape: {es.shape} vs {et.shape}")
    return (lam * et + (1.0 - lam) * es).astype(np.float32)


def combined_orientation(es, et, orient_s, orient_t, lam: float) -> np.ndarray:
    """Per-pixel orientation for a combined map: winner between the two sources."""
    use_t = lam * np.asarray(et) > (1.0 - lam) * np.asarray(es)
    return np.where(use_t, orient_t, orient_s).astype(np.float32)


# one step (dy, dx) along each quantised edge normal: 0, pi/4, pi/2, 3pi/4
# (the orientation is arctan2(gy, gx) with y growing down the rows)
_NORMAL_STEPS = ((0, 1), (1, 1), (1, 0), (1, -1))


def thin_edges(edge_map, orientations) -> np.ndarray:
    """Non-maximum suppression across the edge.

    A pixel keeps its value if it is at least as large as both of its
    neighbours along its edge normal, and is set to 0 otherwise. The normal is
    ``orientations`` quantised to the nearest of 0, pi/4, pi/2 and 3pi/4 (an
    angle near pi wraps to 0); a neighbour outside the frame counts as 0.
    """
    E = as_field(edge_map)
    O = np.asarray(orientations, dtype=np.float32)
    if O.shape != E.shape:
        raise ValueError("orientation field must match the edge map")
    h, w = E.shape
    direction = np.rint(O * np.float32(4 / np.pi)).astype(np.int8)
    direction &= 3
    padded = np.zeros((h + 2, w + 2), dtype=np.float32)
    padded[1:-1, 1:-1] = E
    suppress = np.zeros((h, w), dtype=bool)
    below = np.empty((h, w), dtype=bool)
    for d, (dy, dx) in enumerate(_NORMAL_STEPS):
        along = direction == d
        for sy, sx in ((dy, dx), (-dy, -dx)):
            np.less(E, padded[1 + sy:1 + sy + h, 1 + sx:1 + sx + w], out=below)
            below &= along
            suppress |= below
    return np.where(suppress, np.float32(0), E)


@dataclass
class EdgeGroup:
    """Connected set of edge pixels with coherent orientation."""

    pixels: np.ndarray      # (n, 2) int32 rows of (y, x)
    magnitude: float        # aggregate magnitude (sum of members)
    bbox: Box


# 8-neighbourhood in BFS visiting order
_NEIGHBOURS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]


def edge_groups(edge_map, orientations,
                magnitude_threshold: float = EDGE_THRESHOLD) -> list[EdgeGroup]:
    """Partition supra-threshold edge pixels into orientation-coherent groups.

    The stream passes the thinned map (``thin_edges``), so groups grow along
    one-pixel ridges. 8-connected components are grown breadth-first from
    scan order; growth stops a branch once the orientation change accumulated
    from the seed reaches pi/2, so sharp corners split into separate groups.
    """
    E = as_field(edge_map)
    O = np.asarray(orientations, dtype=np.float64)
    if O.shape != E.shape:
        raise ValueError("orientation field must match the edge map")
    h, w = E.shape
    ys, xs = np.nonzero(E >= magnitude_threshold)
    n = len(ys)
    if n == 0:
        return []
    # compact index of the supra-threshold pixels; n marks "no candidate"
    # (outside the mask or the frame) and counts as already visited
    index = np.full((h + 2, w + 2), n, dtype=np.int32)
    index[ys + 1, xs + 1] = np.arange(n)
    angle = np.append(O[ys, xs], 0.0)
    nbr = np.stack([index[ys + 1 + dy, xs + 1 + dx] for dy, dx in _NEIGHBOURS], axis=1)
    # orientation change to each neighbour, folded mod pi onto [0, pi/2]
    diff = angle[nbr]
    np.subtract(angle[:n, None], diff, out=diff)
    np.abs(diff, out=diff)
    np.remainder(diff, np.pi, out=diff)
    np.minimum(diff, np.pi - diff, out=diff)
    # tolerance absorbs float32 rounding so a clean right-angle corner splits
    limit = np.pi / 2 - 1e-6

    # one BFS per unvisited seed, in scan order; each group's member list is
    # its own queue
    seen = [False] * n + [True]
    acc_of = [0.0] * n
    order: list[int] = []
    starts: list[int] = []
    for seed in range(n):
        if seen[seed]:
            continue
        seen[seed] = True
        members = [seed]
        for i in members:
            acc = acc_of[i]
            # rows convert as visited: all at once they would hold about 70 bytes
            # of Python objects per neighbour entry and raise peak memory
            for j, d in zip(nbr[i].tolist(), diff[i].tolist()):
                if seen[j]:
                    continue
                nacc = acc + d
                if nacc >= limit:
                    continue
                seen[j] = True
                acc_of[j] = nacc
                members.append(j)
        starts.append(len(order))
        order += members

    pix = np.stack([ys[order], xs[order]], axis=1).astype(np.int32)
    mags = E[pix[:, 0], pix[:, 1]]
    lo = np.minimum.reduceat(pix, starts, axis=0).tolist()
    hi = np.maximum.reduceat(pix, starts, axis=0).tolist()
    ends = starts[1:] + [n]
    # one float64 sum per group: np.add.reduceat would add in another order
    return [EdgeGroup(pix[a:b], float(mags[a:b].sum(dtype=np.float64)),
                      Box(x0, y0, x1 - x0 + 1, y1 - y0 + 1))
            for a, b, (y0, x0), (y1, x1) in zip(starts, ends, lo, hi)]
