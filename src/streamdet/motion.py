"""Temporal edges from optical flow: motion boundaries, inside-outside maps,
mid-range accumulation and an edge detector on the accumulated location prior."""

from __future__ import annotations

import struct

import numpy as np
from scipy.ndimage import uniform_filter

from .core import as_field
from .edges import to_gray

FLOW_MAGIC = 202021.25
ALPHA_MAG = 1.0   # motion_boundary's weight of the flow Jacobian norm
ALPHA_DIR = 0.5   # and of the largest direction change, in radians


def read_flow(path) -> np.ndarray:
    """Read a binary flow file: magic float, int32 width/height, interleaved
    float32 (u_x, u_y) pairs, little-endian. Returns an (h, w, 2) array."""
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


def load_flow(path, frame_shape=None) -> np.ndarray:
    """Read a flow file and optionally check it against the frame dimensions."""
    flow = read_flow(path)
    if frame_shape is not None and flow.shape[:2] != tuple(frame_shape[:2]):
        raise ValueError(f"{path}: flow is {flow.shape[:2]} but frame is "
                         f"{tuple(frame_shape[:2])}")
    return flow


def block_matching_flow(f1, f2, search_radius: int = 4, block: int = 5) -> np.ndarray:
    """Dense integer-displacement flow by block matching (sum of absolute
    differences). Ties break toward the smallest displacement magnitude,
    then lexicographic (u_x, u_y)."""
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
    best_cost = np.full((h, w), np.inf, dtype=np.float64)
    best = np.zeros((h, w), dtype=np.intp)
    diff = np.empty((h, w), dtype=np.float64)
    cost = np.empty((h, w), dtype=np.float64)
    better = np.empty((h, w), dtype=bool)
    for idx, (dx, dy) in enumerate(candidates):
        np.subtract(g1, g2_pad[r + dy:r + dy + h, r + dx:r + dx + w], out=diff)
        np.abs(diff, out=diff)
        uniform_filter(diff, size=block, output=cost, mode="nearest")
        # strictly lower only: the first minimum wins, so candidate order is the tie-break
        np.less(cost, best_cost, out=better)
        np.copyto(best_cost, cost, where=better)
        np.copyto(best, idx, where=better)
    cand = np.asarray(candidates, dtype=np.float32)
    flow = cand[best]
    return flow.astype(np.float32)


def motion_boundary(flow) -> np.ndarray:
    """Per-pixel motion-contour strength in [0, 1).

    Combines the Frobenius norm of the flow Jacobian (central differences),
    weighted by ALPHA_MAG, with the largest angular deviation of the flow
    direction from the 4-neighborhood, weighted by ALPHA_DIR, squashed by
    1 - exp(-x). An out-of-frame neighbor is the edge pixel itself, so it
    deviates by 0.
    """
    flow = np.asarray(flow, dtype=np.float64)
    u, v = flow[..., 0], flow[..., 1]
    du_dy, du_dx = np.gradient(u)
    dv_dy, dv_dx = np.gradient(v)
    grad_norm = np.sqrt(du_dx ** 2 + du_dy ** 2 + dv_dx ** 2 + dv_dy ** 2)

    theta = np.arctan2(v, u)
    moving = np.hypot(u, v) > 1e-9
    theta_pad = np.pad(theta, 1, mode="edge")
    moving_pad = np.pad(moving, 1, mode="edge")
    h, w = theta.shape
    dtheta = np.zeros_like(theta)
    for y, x in ((0, 1), (2, 1), (1, 0), (1, 2)):
        nb_theta = theta_pad[y:y + h, x:x + w]
        diff = np.abs(np.arctan2(np.sin(theta - nb_theta), np.cos(theta - nb_theta)))
        diff = np.where(moving & moving_pad[y:y + h, x:x + w], diff, 0.0)
        dtheta = np.maximum(dtheta, diff)

    score = 1.0 - np.exp(-(ALPHA_MAG * grad_norm + ALPHA_DIR * dtheta))
    return score.astype(np.float32)


def _ray_run_starts(crossing: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """For each pixel, count boundary runs strictly beyond it along (dy, dx).

    A "run start" at q along the ray is a boundary pixel whose predecessor
    q - (dy, dx) is not boundary (or out of frame); the returned count for a
    pixel p sums run starts over p + k*(dy, dx), k >= 1.
    """
    h, w = crossing.shape
    pred = np.zeros_like(crossing)
    ys = slice(max(0, dy), h + min(0, dy))
    xs = slice(max(0, dx), w + min(0, dx))
    ps = slice(max(0, -dy), h + min(0, -dy))
    pxs = slice(max(0, -dx), w + min(0, -dx))
    pred[ys, xs] = crossing[ps, pxs]
    start = crossing & ~pred

    counts = np.zeros((h, w), dtype=np.int64)
    if dy == 0:
        s = start.astype(np.int64)
        if dx == 1:
            acc = np.cumsum(s[:, ::-1], axis=1)[:, ::-1]
            counts[:, :-1] = acc[:, 1:]
        else:
            acc = np.cumsum(s, axis=1)
            counts[:, 1:] = acc[:, :-1]
        return counts
    rows = range(h - 2, -1, -1) if dy == 1 else range(1, h)
    s = start.astype(np.int64)
    for y in rows:
        src = y + dy
        contrib = counts[src] + s[src]
        if dx == 0:
            counts[y] = contrib
        elif dx == 1:
            counts[y, :-1] = contrib[1:]
        else:
            counts[y, 1:] = contrib[:-1]
    return counts


def inside_outside_map(boundary, threshold: float = 0.5) -> np.ndarray:
    """Mark pixels lying inside closed motion contours.

    Casts 8 rays per pixel (axes and diagonals); a pixel is inside when at
    least 5 rays cross the thresholded boundary an odd number of times.
    A boundary covering the whole frame yields no crossings: all outside.
    """
    b = as_field(boundary)
    crossing = b >= threshold
    directions = [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    odd_votes = np.zeros(b.shape, dtype=np.int32)
    for dy, dx in directions:
        counts = _ray_run_starts(crossing, dy, dx)
        odd_votes += (counts % 2).astype(np.int32)
    return (odd_votes >= 5)


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
    values = np.asarray(prior, dtype=np.float64)
    gy, gx = np.gradient(values)
    mag = np.hypot(gx, gy)
    peak = mag.max()
    if peak > 0:
        mag = mag / peak
    return mag.astype(np.float32)
