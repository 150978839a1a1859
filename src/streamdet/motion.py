"""Temporal edges from optical flow: motion boundaries, inside-outside maps,
mid-range accumulation and an edge detector on the accumulated location prior."""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import as_field
from .edges import edge_magnitude, to_gray

FLOW_MAGIC = 202021.25
ALPHA_MAG = 1.0   # motion_boundary's weight of the flow Jacobian norm
ALPHA_DIR = 0.5   # and of the largest direction change, in radians
MAX_FLOW_WORKERS = 4   # most threads for block matching's candidate scan
BOUNDARY_THRESHOLD = 0.5   # least motion_boundary value a contour ray crosses


def read_flow(path, frame_shape=None) -> np.ndarray:
    """Read a binary flow file: magic float, int32 width/height, interleaved
    float32 (u_x, u_y) pairs, little-endian. Returns an (h, w, 2) array; with
    ``frame_shape``, a ValueError unless its first two entries are (h, w)."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if len(head) < 12:
            raise ValueError(f"{path}: truncated flow header")
        magic, width, height = struct.unpack("<fii", head)
        if abs(magic - FLOW_MAGIC) > 1e-3:
            raise ValueError(f"{path}: bad magic number {magic!r}")
        if width <= 0 or height <= 0:
            raise ValueError(f"{path}: bad dimensions {width}x{height}")
        data = fh.read(8 * width * height)
    if len(data) != 8 * width * height:
        raise ValueError(f"{path}: truncated flow payload "
                         f"({len(data)} of {8 * width * height} bytes)")
    if frame_shape is not None and (height, width) != tuple(frame_shape[:2]):
        raise ValueError(f"{path}: flow is {(height, width)} but frame is "
                         f"{tuple(frame_shape[:2])}")
    flow = np.frombuffer(data, dtype="<f4").reshape(height, width, 2)
    return flow.astype(np.float32)


def write_flow(path, flow) -> None:
    flow = np.asarray(flow, dtype=np.float32)
    if flow.ndim != 3 or flow.shape[2] != 2:
        raise ValueError(f"flow must be (h, w, 2), got {flow.shape}")
    h, w = flow.shape[:2]
    with open(path, "wb") as fh:
        fh.write(struct.pack("<fii", FLOW_MAGIC, w, h))
        fh.write(np.ascontiguousarray(flow).astype("<f4").tobytes())


def _flow_workers() -> int:
    """Threads for block matching's candidate scan: the CPUs this process may
    run on, at most MAX_FLOW_WORKERS."""
    return min(MAX_FLOW_WORKERS, len(os.sched_getaffinity(0)))


def block_matching_flow(f1, f2, search_radius: int = 4, block: int = 5) -> np.ndarray:
    """Dense integer-displacement flow by block matching (sum of absolute
    differences). Ties break toward the smallest displacement magnitude,
    then lexicographic (u_x, u_y).

    The candidates, in that order, are split into ``_flow_workers()``
    consecutive slices (``len(os.sched_getaffinity(0))`` capped at
    MAX_FLOW_WORKERS; measured on 2 CPUs only), scanned on a thread pool:
    ``uniform_filter`` and the large ufuncs release the GIL. Each slice keeps
    its least cost per pixel and the first of its candidates reaching it; the
    merge takes, per pixel, the earliest slice holding the least cost. That
    is the first minimum in candidate order, as one scan finds it, and every
    cost is the same ``uniform_filter`` call on the same float64 values, so
    the flow does not depend on the worker count. All slice buffers are
    allocated here, 18 bytes per pixel per slice (4.5 MB at 500x500).

    This is the only function of the package that uses scipy
    (``scipy.ndimage.uniform_filter``), and it imports it when called: runs
    with given flows never load scipy.
    """
    from scipy.ndimage import uniform_filter

    g1 = to_gray(f1)
    g2 = to_gray(f2)
    if g1.shape != g2.shape:
        raise ValueError(f"frames disagree in shape: {g1.shape} vs {g2.shape}")
    h, w = g1.shape
    candidates = [(dx, dy) for dy in range(-search_radius, search_radius + 1)
                  for dx in range(-search_radius, search_radius + 1)]
    candidates.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))

    # a sentinel border search_radius wide makes every candidate a slice;
    # displacements that leave the frame cost about 1e6 per pixel
    r = search_radius
    g2_pad = np.pad(g2.astype(np.float64), r, constant_values=1e6)
    g1 = g1.astype(np.float64)
    n = min(_flow_workers(), len(candidates))
    bounds = [len(candidates) * s // n for s in range(n + 1)]
    best_cost = np.empty((n, h, w), dtype=np.float64)
    best = np.empty((n, h, w), dtype=np.min_scalar_type(len(candidates) - 1))
    cost = np.empty((n, h, w), dtype=np.float64)
    better = np.empty((n, h, w), dtype=bool)

    def scan(s: int) -> None:
        """Slice s's least cost per pixel, and the first of its candidates
        reaching it."""
        best_cost[s].fill(np.inf)
        best[s].fill(bounds[s])
        for idx in range(bounds[s], bounds[s + 1]):
            dx, dy = candidates[idx]
            np.subtract(g1, g2_pad[r + dy:r + dy + h, r + dx:r + dx + w], out=cost[s])
            np.abs(cost[s], out=cost[s])
            uniform_filter(cost[s], size=block, output=cost[s], mode="nearest")
            # strictly lower only: the first minimum wins, so candidate order is the tie-break
            np.less(cost[s], best_cost[s], out=better[s])
            np.minimum(best_cost[s], cost[s], out=best_cost[s])
            np.copyto(best[s], idx, where=better[s])

    with ThreadPoolExecutor(max_workers=n) as pool:
        list(pool.map(scan, range(n)))
    del cost, better
    # argmin's first minimum is the earliest slice holding the least cost
    first = np.argmin(best_cost, axis=0)
    index = np.take_along_axis(best, first[np.newaxis], axis=0)[0]
    return np.asarray(candidates, dtype=np.float32)[index]


def _gradient(f: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``np.gradient(f, axis=axis)`` at unit spacing, written into ``out``:
    central differences inside, one-sided ones at the two ends."""
    f, o = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=o[1:-1])
    np.divide(o[1:-1], 2.0, out=o[1:-1])
    np.subtract(f[1], f[0], out=o[0])
    np.subtract(f[-1], f[-2], out=o[-1])
    return out


def motion_boundary(flow) -> np.ndarray:
    """Per-pixel motion-contour strength in [0, 1).

    Combines the Frobenius norm of the flow Jacobian (central differences),
    weighted by ALPHA_MAG, with the largest angular deviation of the flow
    direction from the 4-neighborhood, weighted by ALPHA_DIR, squashed by
    1 - exp(-x). An out-of-frame neighbor is the edge pixel itself, so it
    deviates by 0. The flow needs at least 2 rows and 2 columns. Every step
    writes into five float64 fields of the flow's size, reused throughout.
    """
    flow = np.asarray(flow)
    h, w = flow.shape[:2]
    if h < 2 or w < 2:
        raise ValueError(f"flow must be at least 2x2, got {h}x{w}")
    u = flow[..., 0].astype(np.float64)
    v = flow[..., 1].astype(np.float64)

    # sqrt(du_dx**2 + du_dy**2 + dv_dx**2 + dv_dy**2), summed in that order
    score = np.square(_gradient(u, 1, np.empty_like(u)))
    tmp = np.empty_like(u)
    for component, axis in ((u, 0), (v, 1), (v, 0)):
        np.add(score, np.square(_gradient(component, axis, tmp), out=tmp), out=score)
    np.sqrt(score, out=score)

    theta = np.arctan2(v, u, out=tmp)
    moving = np.hypot(u, v, out=u) > 1e-9
    dtheta = np.zeros_like(theta)
    still = np.empty_like(moving)
    lo, hi, every = slice(None, -1), slice(1, None), slice(None)
    # (pixels, their neighbor) above, below, left and right; an edge pixel is
    # its own out-of-frame neighbor and keeps 0
    for px, nb in (((hi, every), (lo, every)), ((lo, every), (hi, every)),
                   ((every, hi), (every, lo)), ((every, lo), (every, hi))):
        diff = np.subtract(theta[px], theta[nb], out=u[px])
        angle = np.sin(diff, out=v[px])
        np.arctan2(angle, np.cos(diff, out=diff), out=angle)
        np.abs(angle, out=angle)
        mask = np.logical_and(moving[px], moving[nb], out=still[px])
        np.copyto(angle, 0.0, where=np.logical_not(mask, out=mask))
        np.maximum(dtheta[px], angle, out=dtheta[px])

    np.multiply(score, ALPHA_MAG, out=score)
    np.multiply(dtheta, ALPHA_DIR, out=dtheta)
    np.add(score, dtheta, out=score)
    np.negative(score, out=score)
    np.exp(score, out=score)
    np.subtract(1.0, score, out=score)
    return score.astype(np.float32)


def _ray_odd_run_starts(crossing: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """For each pixel, whether an odd number of boundary runs lie strictly
    beyond it along (dy, dx).

    A "run start" at q along the ray is a boundary pixel whose predecessor
    q - (dy, dx) is not boundary (or out of frame); the returned parity for a
    pixel p is that of the run starts over p + k*(dy, dx), k >= 1.
    """
    h, w = crossing.shape
    pred = np.zeros_like(crossing)
    ys = slice(max(0, dy), h + min(0, dy))
    xs = slice(max(0, dx), w + min(0, dx))
    ps = slice(max(0, -dy), h + min(0, -dy))
    pxs = slice(max(0, -dx), w + min(0, -dx))
    pred[ys, xs] = crossing[ps, pxs]
    start = crossing & ~pred

    odd = np.zeros((h, w), dtype=bool)
    if dy == 0 or dx == 0:
        # along an axis: a running parity from the far end, shifted one pixel
        axis = 1 if dy == 0 else 0
        ahead, runs = np.moveaxis(odd, axis, 0), np.moveaxis(start, axis, 0)
        if dx + dy == 1:
            ahead[:-1] = np.logical_xor.accumulate(runs[::-1], axis=0)[::-1][1:]
        else:
            ahead[1:] = np.logical_xor.accumulate(runs, axis=0)[:-1]
        return odd
    rows = range(h - 2, -1, -1) if dy == 1 else range(1, h)
    for y in rows:
        src = y + dy
        if dx == 1:
            np.logical_xor(odd[src, 1:], start[src, 1:], out=odd[y, :-1])
        else:
            np.logical_xor(odd[src, :-1], start[src, :-1], out=odd[y, 1:])
    return odd


def inside_outside_map(boundary) -> np.ndarray:
    """Mark pixels lying inside closed motion contours.

    Casts 8 rays per pixel (axes and diagonals); a pixel is inside when at
    least 5 rays cross the boundary, thresholded at BOUNDARY_THRESHOLD, an
    odd number of times.
    A boundary covering the whole frame yields no crossings: all outside.
    """
    b = as_field(boundary)
    crossing = b >= BOUNDARY_THRESHOLD
    directions = [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    odd_votes = np.zeros(b.shape, dtype=np.uint8)
    for dy, dx in directions:
        odd_votes += _ray_odd_run_starts(crossing, dy, dx)
    return odd_votes >= 5


def accumulate_prior(masks) -> np.ndarray:
    """Location prior of one sub-sequence: the float32 mean of 1..n
    equal-size binary masks, values in [0, 1]."""
    if not masks:
        raise ValueError("need at least one mask to accumulate")
    stack = [np.asarray(m, dtype=np.float64) for m in masks]
    shape = stack[0].shape
    for m in stack[1:]:
        if m.shape != shape:
            raise ValueError(f"mask shapes disagree: {m.shape} vs {shape}")
    mean = np.mean(stack, axis=0)
    return mean.astype(np.float32)


def temporal_edge(prior) -> np.ndarray:
    """Normalized gradient magnitude of the accumulated location prior."""
    gy, gx = np.gradient(np.asarray(prior, dtype=np.float64))
    return edge_magnitude(gx, gy)
