"""Temporal edges from optical flow: motion boundaries, inside-outside maps,
mid-range accumulation and an edge detector on the accumulated location prior.

Where no flow is given, ``block_matching_flow`` computes it in numpy alone.
Its SADs are exact on 8-bit frames, with an out-of-frame sentinel of 256.0,
so an exact tie goes to the earliest candidate. Candidate (0, 0) is scored
first; where its SAD is +0.0 no other can win (no SAD is below 0), so the
other candidates are scanned only around the pixels that changed between
the two frames.

The prior's cost follows the motion. A motion boundary is 0 wherever the
flow is locally constant, and block matching's flow is nonzero on a few
percent of the pixels (3.6 % on the 500x500 bench scene). So
``motion_boundary`` takes flow directions, their deviations and the final
exp only at the pixels that need them; ``inside_outside_map`` casts its rays
only inside the box of the boundary crossings; and ``temporal_edge``, like
``edges.orientation_of``, filters only the box where the prior changes.
Everywhere else each writes the value the full-frame computation gives
there, so every result has its bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from .core import as_field
from .edges import box_slices, edge_magnitude, on_changing_box, to_gray

FLOW_MAGIC = 202021.25
ALPHA_MAG = 1.0   # motion_boundary's weight of the flow Jacobian norm
ALPHA_DIR = 0.5   # and of the largest direction change, in radians
SENTINEL = 256.0   # block matching's value of the second frame beyond its edge
FLOW_ROWS = 32   # rows per tile of block matching's candidate scan
BOUNDARY_THRESHOLD = 0.5   # least motion_boundary value a contour ray crosses
GATHER_CHUNK = 1 << 15   # pixels per gather in motion_boundary's sparse steps


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


def _window_sums(a: np.ndarray, block: int, step: int, out: np.ndarray) -> None:
    """``out[j] = a[j] + a[j + step] + ... + a[j + (block - 1) * step]`` on
    1-D arrays, added in that order."""
    n = len(out)
    if block == 1:
        np.copyto(out, a[:n])
        return
    np.add(a[:n], a[step:step + n], out=out)
    for k in range(2, block):
        np.add(out, a[k * step:k * step + n], out=out)


def _sad(g1, g2, r: int, shift, block: int, ys: slice, xs: slice,
         diff, across, out) -> np.ndarray:
    """SADs of the displacement ``shift`` = (dx, dy) at the pixels in rows
    ``ys`` and columns ``xs``: g1 against g2, which has a SENTINEL border r
    wide. The cost beyond the frame repeats its edge ("nearest").
    ``diff``, ``across`` and ``out`` are flat buffers of at least
    (rows + block - 1) * (columns + block - 1) values; the result is a view
    into ``out``.

    The cost is laid out in rows of ``columns + block - 1`` values, so both
    window sums run on 1-D slices: along the row, then down the column. The
    last block - 1 sums of each row mix two rows and are not read."""
    h, w = g1.shape
    dx, dy = shift
    y0, y1, x0, x1 = ys.start, ys.stop, xs.start, xs.stop
    before = block // 2    # uniform_filter's window: block // 2 before the pixel
    a0, a1 = max(y0 - before, 0), min(y1 - before + block - 1, h)
    b0, b1 = max(x0 - before, 0), min(x1 - before + block - 1, w)
    top, left = a0 - (y0 - before), b0 - (x0 - before)
    bottom, right = top + a1 - a0, left + b1 - b0
    rows, cols = y1 - y0 + block - 1, x1 - x0 + block - 1
    flat = diff[:rows * cols]
    cost = flat.reshape(rows, cols)
    inside = cost[top:bottom, left:right]
    np.subtract(g1[a0:a1, b0:b1],
                g2[a0 + r + dy:a1 + r + dy, b0 + r + dx:b1 + r + dx], out=inside)
    np.abs(flat, out=flat)    # contiguous; the border is written next
    if left:
        cost[top:bottom, :left] = inside[:, :1]
    if right < cols:
        cost[top:bottom, right:] = inside[:, -1:]
    if top:
        cost[:top] = cost[top]
    if bottom < rows:
        cost[bottom:] = cost[bottom - 1]
    summed = across[:rows * cols - block + 1]
    _window_sums(flat, block, 1, summed)
    n = y1 - y0
    _window_sums(summed, block, cols, out[:n * cols - block + 1])
    return out[:n * cols].reshape(n, cols)[:, :x1 - x0]


def block_matching_flow(f1, f2, search_radius: int = 4, block: int = 5) -> np.ndarray:
    """Dense integer-displacement flow by block matching: at each pixel, the
    candidate displacement (u_x, u_y) within ``search_radius`` of least SAD
    (sum of absolute differences). Ties break toward the smallest
    displacement magnitude, then lexicographic (u_x, u_y): the candidates
    are scanned in that order, and only a strictly lower cost replaces the
    best.

    **The cost.** A candidate (dx, dy) costs |g1 - g2 shifted by (dx, dy)|
    at a pixel, on the two frames' luma (``to_gray``), and its SAD sums
    that cost over the block x block window of ``scipy.ndimage.uniform_filter``
    (block // 2 pixels before the pixel, for even sizes too), with the cost
    extended beyond the frame by repeating its edge ("nearest"). Shifted g2
    is SENTINEL (256.0) beyond the frame, so a candidate that reads outside
    pays at least 255 per outside pixel, where an inside pixel costs at most
    1. Each window is summed by slice additions in one fixed order, along
    the row and then down the column, so a pixel's SAD does not depend on
    which other pixels are scored with it.

    **Exact for 8-bit frames.** Their luma is a multiple of 2^-35 (the
    least nonzero value, 0.114 / 255, lies above 2^-12, and float32 keeps
    24 bits) below 1, and every cost is such a multiple below 2^9. A
    window of up to 2^9 of them (block up to 22) sums exactly in float64.
    So an exact tie really goes to the earliest candidate.

    **Pruned with a proof.** (0, 0) comes first in the order and is scored
    on the whole frame. Where its SAD is +0.0, the window is identical in
    both frames and the pixel keeps (0, 0): no SAD is below 0, and only a
    strictly lower one would replace it. The other candidates are scanned
    one tile of FLOW_ROWS rows at a time, and only over the bounding box of
    the tile's pixels whose (0, 0) SAD is positive. On video with static
    regions that is a few percent of the frame (3.7 % of a 500x500
    ``large-cli`` frame pair); on frames that change everywhere, all of it.

    Beside the flow, it holds the float64 g1, the padded float64 g2, the
    best SAD and the best candidate's index, plus three tile buffers.
    """
    g1 = to_gray(f1)
    g2 = to_gray(f2)
    if g1.shape != g2.shape:
        raise ValueError(f"frames disagree in shape: {g1.shape} vs {g2.shape}")
    h, w = g1.shape
    candidates = [(dx, dy) for dy in range(-search_radius, search_radius + 1)
                  for dx in range(-search_radius, search_radius + 1)]
    candidates.sort(key=lambda d: (d[0] * d[0] + d[1] * d[1], d[0], d[1]))

    r = search_radius
    g1 = g1.astype(np.float64)
    g2 = np.pad(g2.astype(np.float64), r, constant_values=SENTINEL)
    best_cost = np.empty((h, w))
    best = np.zeros((h, w), dtype=np.min_scalar_type(len(candidates) - 1))
    tile = min(h, FLOW_ROWS)
    size = (tile + block - 1) * (w + block - 1)
    diff, across, cost = np.zeros(size), np.empty(size), np.empty(size)
    better = np.empty((tile, w), dtype=bool)
    for y0 in range(0, h, tile):
        y1 = min(y0 + tile, h)
        best_cost[y0:y1] = _sad(g1, g2, r, (0, 0), block, slice(y0, y1),
                                slice(0, w), diff, across, cost)
        # a (0, 0) SAD of +0.0 cannot be beaten: scan the box of the others
        positive = best_cost[y0:y1] > 0
        if not positive.any():
            continue
        rows, cols = box_slices(positive, 0)
        box = slice(y0 + rows.start, y0 + rows.stop), cols
        box_cost, box_best, lower = best_cost[box], best[box], better[rows, cols]
        for idx in range(1, len(candidates)):
            sad = _sad(g1, g2, r, candidates[idx], block, *box, diff, across, cost)
            # strictly lower only: the first minimum wins
            np.less(sad, box_cost, out=lower)
            np.minimum(box_cost, sad, out=box_cost)
            np.copyto(box_best, idx, where=lower)
    del g1, g2, best_cost
    return np.asarray(candidates, dtype=np.float32)[best]


def _gradient(f: np.ndarray, axis: int, out: np.ndarray) -> np.ndarray:
    """``np.gradient(f, axis=axis)`` at unit spacing, written into ``out``:
    central differences inside, one-sided ones at the two ends."""
    f, o = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f[2:], f[:-2], out=o[1:-1])
    np.divide(o[1:-1], 2.0, out=o[1:-1])
    np.subtract(f[1], f[0], out=o[0])
    np.subtract(f[-1], f[-2], out=o[-1])
    return out


def _nonzero_pixels(values: np.ndarray):
    """Flat indices of the nonzero entries of a 1-D array, for GATHER_CHUNK
    entries of it at a time."""
    for start in range(0, len(values), GATHER_CHUNK):
        yield start + np.flatnonzero(values[start:start + GATHER_CHUNK])


def motion_boundary(flow) -> np.ndarray:
    """Per-pixel motion-contour strength in [0, 1).

    Combines the Frobenius norm of the flow Jacobian (central differences),
    weighted by ALPHA_MAG, with the largest angular deviation of the flow
    direction from the 4-neighborhood, weighted by ALPHA_DIR, squashed by
    1 - exp(-x). An out-of-frame neighbor is the edge pixel itself, so it
    deviates by 0. The flow needs at least 2 rows and 2 columns.

    The Jacobian is taken on the whole frame, in float64. The rest runs only
    where it can change the result:
    - the flow norm where the flow is not 0, and the direction, arctan2(v,
      u), on moving pixels (norm above 1e-9), the only ones whose direction
      is read;
    - a direction change only between a moving pixel and a moving neighbor
      whose directions differ, on gathers of at most GATHER_CHUNK moving
      pixels. Equal directions differ by +-0.0, which deviates by +0.0, the
      value a pixel starts from. The test is on the directions, not on the
      flow: (-1, +0.0) points at pi and (-1, -0.0) at -pi;
    - the exp only where x is not 0, as 1 - exp(-0) is +0.0, which every
      other pixel keeps.
    At most four float64 fields are held at once: the flow's two components,
    the Jacobian and a buffer that then holds the directions.
    """
    flow = np.asarray(flow)
    h, w = flow.shape[:2]
    if h < 2 or w < 2:
        raise ValueError(f"flow must be at least 2x2, got {h}x{w}")
    n = h * w
    u = flow[..., 0].astype(np.float64)
    v = flow[..., 1].astype(np.float64)

    # sqrt(du_dx**2 + du_dy**2 + dv_dx**2 + dv_dy**2), summed in that order
    score = np.square(_gradient(u, 1, np.empty((h, w))))
    tmp = np.empty((h, w))
    for component, axis in ((u, 0), (v, 1), (v, 0)):
        np.add(score, np.square(_gradient(component, axis, tmp), out=tmp), out=score)
    np.sqrt(score, out=score)
    np.multiply(score, ALPHA_MAG, out=score)
    score = score.reshape(-1)

    # the direction of the moving pixels; it is not read anywhere else
    u, v = u.reshape(-1), v.reshape(-1)
    theta = tmp.reshape(-1)
    nonzero = (u != 0) | (v != 0)
    speed = np.hypot(u, v, out=theta, where=nonzero)
    moving = np.greater(speed, 1e-9, out=np.zeros(n, dtype=bool), where=nonzero)
    np.arctan2(v, u, out=theta, where=moving)
    del u, v, nonzero

    for i in _nonzero_pixels(moving):
        th = theta[i]
        turn = np.zeros(len(i))
        diff = np.empty(len(i))
        row, col = np.divmod(i, w)
        # the neighbor above, below, left and right of each moving pixel
        for step, inside in ((-w, row > 0), (w, row < h - 1), (-1, col > 0),
                             (1, col < w - 1)):
            j = i + step
            bent = inside & moving.take(j, mode="clip")
            np.subtract(th, theta.take(j, mode="clip"), out=diff, where=bent)
            # equal directions deviate by +0, which turn already holds
            bent &= diff != 0
            k = np.flatnonzero(bent)
            d = diff[k]
            angle = np.sin(d)
            np.arctan2(angle, np.cos(d, out=d), out=angle)
            np.abs(angle, out=angle)
            turn[k] = np.maximum(turn[k], angle)
        np.multiply(turn, ALPHA_DIR, out=turn)
        score[i] += turn

    # 1 - exp(-0) is +0, the value every other pixel keeps
    out = np.zeros(n, dtype=np.float32)
    for i in _nonzero_pixels(score):
        x = score[i]
        np.negative(x, out=x)
        np.exp(x, out=x)
        np.subtract(1.0, x, out=x)
        out[i] = x
    return out.reshape(h, w)


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

    The rays are cast only inside the bounding box of the crossings. A pixel
    beyond it, say above it, finds none on the five rays that do not point
    down, so at most 3 of its rays are odd and it is outside. A ray from a
    pixel inside the box meets every crossing of its line within the box,
    and the pixels just beyond the box cross nothing, so the votes there
    are those of the whole frame.
    """
    b = as_field(boundary)
    crossing = b >= BOUNDARY_THRESHOLD
    ys, xs = box_slices(crossing, 0)
    crossing = np.ascontiguousarray(crossing[ys, xs])
    directions = [(-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1)]
    odd_votes = np.zeros(crossing.shape, dtype=np.uint8)
    for dy, dx in directions:
        odd_votes += _ray_odd_run_starts(crossing, dy, dx)
    inside = np.zeros(b.shape, dtype=bool)
    inside[ys, xs] = odd_votes >= 5
    return inside


def accumulate_prior(masks) -> np.ndarray:
    """Location prior of one sub-sequence: the float32 mean of 1..n
    equal-size binary masks, values in [0, 1].

    A nonzero mask pixel counts as 1. The counts are exact in the smallest
    unsigned integer type that holds n (uint8 up to 255 masks), and each is
    divided once by n in float64, as ``np.mean`` of the masks as float64
    divides their exact sum.
    """
    if not masks:
        raise ValueError("need at least one mask to accumulate")
    shape = np.shape(masks[0])
    counts = np.zeros(shape, dtype=np.min_scalar_type(len(masks)))
    for m in masks:
        m = np.asarray(m, dtype=bool)
        if m.shape != shape:
            raise ValueError(f"mask shapes disagree: {m.shape} vs {shape}")
        counts += m
    return np.divide(counts, len(masks), out=np.empty(shape, dtype=np.float32),
                     dtype=np.float64)


def _gradient_magnitude(field) -> np.ndarray:
    """``temporal_edge`` on the whole field."""
    gy, gx = np.gradient(np.asarray(field, dtype=np.float64))
    return edge_magnitude(gx, gy)


def temporal_edge(prior) -> np.ndarray:
    """Normalized gradient magnitude of the accumulated location prior
    (``np.gradient``: central differences, one-sided at the two ends).

    Computed only on the box where the prior changes, widened by 2 pixels
    (``on_changing_box``): a central difference reads one pixel on each
    side, and where the crop's border cuts the frame, its one-sided
    difference of two equal values, c - c, is the central one's
    (c - c) / 2. Both are +0.0 on the prior.
    """
    return on_changing_box(_gradient_magnitude, prior, 2)
