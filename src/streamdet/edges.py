"""Spatial edge detection, spatio-temporal edge combination, edge thinning
and edge grouping.

Spatial edges are Scharr derivatives of the Gaussian-smoothed luma. Both
filters are plain numpy that reproduces ``scipy.ndimage``'s
``gaussian_filter`` and 3x3 ``convolve`` bit for bit (``gaussian_smooth``,
``_scharr_tiles``; both extend the borders as scipy does), so edge
detection does not import scipy. ``edge_magnitude`` normalizes derivatives
into an edge map, here and for the temporal edges of ``motion``.

The Scharr filter runs one tile of rows at a time (``_scharr_tiles``), so
``spatial_edge`` turns each tile's derivatives into magnitude and
orientation at once and never holds whole-frame derivatives.
``orientation_of`` filters only the box where its field changes
(``on_changing_box``); on the location prior, that is the moving objects'
neighbourhood.

The combined map is thinned across the edge before it is grouped (EdgeBoxes'
first step, Zitnick & Dollar, ECCV 2014, section 3): groups grow on the
one-pixel ridges of the thinned map, not on the band that smoothing spreads
over several pixels on each side of a boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Box, as_field

SMOOTH_SIGMA = 1.5      # Gaussian smoothing before the derivatives
EDGE_THRESHOLD = 0.1    # least edge magnitude that groups and box scores count
FILTER_TILE = 32768     # float64 values (256 kB) per row tile of the two filters


def to_gray(frame) -> np.ndarray:
    """Luma in [0, 1] as float32 from an RGB or grayscale frame.

    Integer frames are divided by 255. Float frames are taken as [0, 1]
    unless a value exceeds 1, in which case they are divided by 255 too.
    Luma is built one channel at a time in float64.
    """
    arr = np.asarray(frame)
    if arr.ndim == 3:
        gray = np.multiply(arr[..., 0], 0.299, dtype=np.float64)
        part = np.multiply(arr[..., 1], 0.587, dtype=np.float64)
        gray += part
        gray += np.multiply(arr[..., 2], 0.114, out=part, dtype=np.float64)
    else:
        gray = arr.astype(np.float64)
    if np.issubdtype(arr.dtype, np.integer) or gray.max() > 1.0:
        gray /= 255.0
    return gray.astype(np.float32)


# scipy.ndimage's extension modes as np.pad's: "nearest" repeats the end
# sample; "reflect" mirrors about the outer edge of the end sample, with
# period 2n on lines shorter than the radius
_PAD_MODES = {"nearest": "edge", "reflect": "symmetric"}


def _correlate_symmetric(src, weights, out, tmp) -> None:
    """One symmetric correlation down axis 0, as ``scipy.ndimage``'s C loop
    adds it: ``out = src[i]*w[0]``, then ``out += (src[i-j] + src[i+j])*w[j]``
    for j = r down to 1. ``src`` holds r extra entries at each end."""
    r = len(weights) - 1
    n = out.shape[0]
    np.multiply(src[r:r + n], weights[0], out=out)
    for j in range(r, 0, -1):
        np.add(src[r - j:r - j + n], src[r + j:r + j + n], out=tmp)
        np.multiply(tmp, weights[j], out=tmp)
        out += tmp


def _row_tile(height: int, width: int) -> int:
    """Rows per tile: about FILTER_TILE values of ``width``, at least one."""
    return min(height, max(1, FILTER_TILE // width))


def gaussian_smooth(field, sigma: float, mode: str) -> np.ndarray:
    """Gaussian-smoothed float64 copy of a 2-D field.

    Equal, bit for bit, to ``scipy.ndimage.gaussian_filter`` on the field as
    float64 with mode "nearest" or "reflect" (truncated at 4 sigma): the same
    kernel, axis 0 before axis 1, and the same operations per output value.
    Any other mode raises a ValueError.

    The field is extended once by ``np.pad`` (scipy's mode names map to
    np.pad's in ``_PAD_MODES``), then filtered in tiles of rows, about
    FILTER_TILE values each, so both passes over a tile run in cache. The
    vertical pass fills a tile's extended columns as well, which lets the
    horizontal pass run over the tile as one contiguous line: an output
    value at (i, c) reads the line at i*W + c .. i*W + c + 2r, all inside
    row i. Contiguous lines run several times faster in numpy than 2-D
    slices.
    """
    radius = int(4.0 * float(sigma) + 0.5)
    # scipy.ndimage._gaussian_kernel1d(sigma, 0, radius), reversed, from the
    # centre tap out to offset radius
    taps = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    weights = (kernel / kernel.sum())[::-1][radius::-1]
    if mode not in _PAD_MODES:
        raise ValueError(f"unknown extension mode {mode!r}")
    h, w = np.shape(field)
    padded = np.pad(np.asarray(field, dtype=np.float64), radius, _PAD_MODES[mode])
    W = w + 2 * radius
    tile = _row_tile(h, W)
    wide = np.empty((tile, W))
    line = np.empty(tile * W)
    tmp = np.empty(tile * W)
    out = np.empty((h, w))
    for r0 in range(0, h, tile):
        t = min(tile, h - r0)
        n = t * W
        _correlate_symmetric(padded[r0:r0 + t + 2 * radius], weights, wide[:t],
                             tmp[:n].reshape(t, W))
        _correlate_symmetric(wide[:t].reshape(-1), weights, line[:n - 2 * radius],
                             tmp[:n - 2 * radius])
        out[r0:r0 + t] = line[:n].reshape(t, W)[:, :w]
    return out


def _scharr_tiles(smooth: np.ndarray):
    """Scharr derivatives of a field, one tile of rows at a time: yields
    (r0, gx, gy), the derivatives of rows r0 .. r0 + len(gx) - 1.

    Equal bit for bit to ``scipy.ndimage.convolve(smooth, kernel,
    mode="nearest")`` with the kernel ``[[-3, 0, 3], [-10, 0, 10], [-3, 0,
    3]] / 32`` for gx and its transpose for gy. Their scale cancels after
    normalization.

    Like scipy, each value is +0.0 plus the products of the nonzero taps of
    the flipped kernel, in raster order, so an all-zero neighbourhood gives
    +0.0. The taps are +-3/32 and +-10/32, and x*(-c) is -(x*c) exactly, so
    each tile's values are multiplied by 3/32 and 10/32 once and the signed
    taps are added or subtracted. As in ``gaussian_smooth``, each tile runs
    as one contiguous line.

    A tile is copied into a buffer with the rows above and below it and both
    end columns repeated, as ``np.pad`` extends them, and its last row stays
    there as the next tile's row above. So the field is never copied whole,
    and a caller may overwrite a tile's rows of ``smooth`` once it is yielded.
    """
    h, w = smooth.shape
    W = w + 2
    tile = _row_tile(h, W)
    src = np.empty((tile + 2, W))
    corner = np.empty((tile + 2) * W)
    side = np.empty((tile + 2) * W)
    lines = np.empty((2, tile * W))
    src[0, 1:-1] = smooth[0]
    for r0 in range(0, h, tile):
        t = min(tile, h - r0)
        src[1:t + 1, 1:-1] = smooth[r0:r0 + t]
        src[t + 1, 1:-1] = smooth[min(r0 + t, h - 1)]
        src[:t + 2, 0] = src[:t + 2, 1]
        src[:t + 2, -1] = src[:t + 2, -2]
        flat = src[:t + 2].reshape(-1)
        np.multiply(flat, 3 / 32, out=corner[:flat.size])
        np.multiply(flat, 10 / 32, out=side[:flat.size])
        n = t * W - 2

        def tap(values, dy, dx):
            return values[dy * W + dx:dy * W + dx + n]

        # gx's kernel flipped: [[3, 0, -3], [10, 0, -10], [3, 0, -3]] / 32
        x = np.add(tap(corner, 0, 0), 0.0, out=lines[0, :n])
        x -= tap(corner, 0, 2)
        x += tap(side, 1, 0)
        x -= tap(side, 1, 2)
        x += tap(corner, 2, 0)
        x -= tap(corner, 2, 2)
        # gy's kernel flipped: [[3, 10, 3], [0, 0, 0], [-3, -10, -3]] / 32
        y = np.add(tap(corner, 0, 0), 0.0, out=lines[1, :n])
        y += tap(side, 0, 1)
        y += tap(corner, 0, 2)
        y -= tap(corner, 2, 0)
        y -= tap(side, 2, 1)
        y -= tap(corner, 2, 2)
        src[0] = src[t]
        grads = lines[:, :t * W].reshape(2, t, W)[:, :, :w]
        yield r0, grads[0], grads[1]


def box_slices(mask: np.ndarray, margin: int) -> tuple[slice, slice]:
    """Row and column slices of the bounding box of a 2-D mask's True
    pixels, or of its top-left pixel if it has none, widened by ``margin``
    on every side and clipped to the mask."""
    h, w = mask.shape
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    y0, y1 = (rows[0], rows[-1]) if rows.size else (0, 0)
    x0, x1 = (cols[0], cols[-1]) if cols.size else (0, 0)
    return (slice(max(y0 - margin, 0), min(y1 + margin + 1, h)),
            slice(max(x0 - margin, 0), min(x1 + margin + 1, w)))


def on_changing_box(stage, field, margin: int) -> np.ndarray:
    """``stage(field)``, computed only on the smallest box outside which the
    2-D field is constant, widened by ``margin``.

    ``stage`` maps a field to one of its shape. Each output pixel may read
    the input less than ``margin`` pixels away (the stage's reach). At a
    border, a pixel whose reach holds one constant must come out as it does
    deep inside that constant: true where the border is extended by
    repeating it, and of np.gradient's one-sided difference, c - c against
    the central (c - c) / 2. A normalization over the whole output may
    follow, as long as it depends only on which values the output holds.
    Then the crop reads what the field holds wherever it matters, and a
    pixel on the crop's inner border, ``margin`` pixels from the change,
    reads the constant only and comes out as every pixel outside the crop
    does; the crop's result is written into a field of that value. Cropped
    or not, the bytes are the same.

    A box that leaves out part of the field leaves out its first or its last
    row or column, so the constant is the value of the top-left or of the
    bottom-right pixel; of their two boxes the smaller is used. Values
    compare as numbers, so -0.0 counts as 0.0 and NaN as a change. A constant
    field's box is that of its top-left pixel.
    """
    field = np.asarray(field)
    boxes = [box_slices(field != c, margin) for c in {field[0, 0], field[-1, -1]}]
    ys, xs = min(boxes, key=lambda b: (b[0].stop - b[0].start) * (b[1].stop - b[1].start))
    part = stage(field[ys, xs])
    if part.shape == field.shape:
        return part
    # a corner of the box that is not a corner of the field
    corner = (0, 0) if ys.start or xs.start else (-1, -1)
    out = np.full(field.shape, part[corner], dtype=part.dtype)
    out[ys, xs] = part
    return out


# how far an output pixel of orientation_of reads: the smoothing radius
# plus the Scharr neighbour
_GRADIENT_REACH = int(4.0 * SMOOTH_SIGMA + 0.5) + 1


def spatial_edge(frame):
    """Gradient-magnitude edge map of a frame plus per-pixel edge orientation.

    Returns (magnitude, orientation): magnitude is normalized to [0, 1],
    orientation is the gradient (edge normal) angle in [0, pi). Each tile's
    gradient magnitude is written over its rows of the smoothed luma, which
    no later tile reads.
    """
    smooth = gaussian_smooth(to_gray(frame), SMOOTH_SIGMA, "nearest")
    orientation = np.empty(smooth.shape, dtype=np.float32)
    for r0, gx, gy in _scharr_tiles(smooth):
        rows = slice(r0, r0 + len(gx))
        _orientation(gx, gy, orientation[rows])
        np.hypot(gx, gy, out=smooth[rows])
    return _normalized(smooth), orientation


def _orientation_map(field) -> np.ndarray:
    """``orientation_of`` on the whole field, written tile by tile."""
    smooth = gaussian_smooth(field, SMOOTH_SIGMA, "nearest")
    orientation = np.empty(smooth.shape, dtype=np.float32)
    for r0, gx, gy in _scharr_tiles(smooth):
        _orientation(gx, gy, orientation[r0:r0 + len(gx)])
    return orientation


def orientation_of(field) -> np.ndarray:
    """Gradient-direction angles in [0, pi) for an arbitrary scalar field:
    Scharr derivatives after Gaussian smoothing at SMOOTH_SIGMA.

    Computed only on the box where the field changes, widened by one pixel
    more than the two filters reach (``on_changing_box``): both are local,
    and both repeat a crop's border values, which are the constant its real
    neighbours hold too. On the location prior that box is about 40 % of a
    500x500 frame.
    """
    return on_changing_box(_orientation_map, field, _GRADIENT_REACH + 1)


def edge_magnitude(gx, gy) -> np.ndarray:
    """Gradient magnitude divided by its peak (unless that is 0): float32 in
    [0, 1]."""
    return _normalized(np.hypot(gx, gy))


def _normalized(magnitude: np.ndarray) -> np.ndarray:
    """A float64 magnitude, divided in place by its peak (unless that is 0),
    as float32."""
    peak = magnitude.max()
    if peak > 0:
        magnitude /= peak
    return magnitude.astype(np.float32)


def _orientation(gx, gy, out) -> np.ndarray:
    """Gradient (edge normal) angle in [0, pi), written into the float32
    array ``out``.

    The bytes of ``np.mod(np.arctan2(gy, gx), np.pi)`` in half its time:
    np.mod takes fmod of each angle, which is the angle itself inside
    (-pi, pi) and +-0.0 at +-pi, adds pi to a negative result, and turns a
    zero result into +0.0. So an angle of +-0.0 or pi becomes +0.0 (-pi + pi
    is +0.0 already), and a negative one gains pi.
    """
    angle = np.arctan2(gy, gx)
    zero = (angle == 0.0) | (angle == np.pi)
    np.add(angle, np.pi, out=angle, where=angle < 0.0)
    np.copyto(angle, 0.0, where=zero)
    out[...] = angle
    return out


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
    padded = np.pad(E, 1)
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
