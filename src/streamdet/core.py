"""Geometry primitives, dense 2-D fields, integral images and box arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Box:
    """Axis-aligned box in integer pixel coordinates; (x, y) is the top-left corner."""

    x: int
    y: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box needs positive extent, got w={self.w} h={self.h}")

    @property
    def x2(self) -> int:
        """Exclusive right edge."""
        return self.x + self.w

    @property
    def y2(self) -> int:
        """Exclusive bottom edge."""
        return self.y + self.h

    @property
    def area(self) -> int:
        return self.w * self.h

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def clamped(self, width: int, height: int) -> "Box":
        """Clamp the box into a width x height frame, keeping at least 1 px extent."""
        w = min(self.w, width)
        h = min(self.h, height)
        x = min(max(self.x, 0), width - w)
        y = min(max(self.y, 0), height - h)
        return Box(x, y, w, h)

    def contains(self, other: "Box") -> bool:
        return (other.x >= self.x and other.y >= self.y
                and other.x2 <= self.x2 and other.y2 <= self.y2)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x, self.y, self.w, self.h)


def iou(a: Box, b: Box) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x, b.x)
    iy = min(a.y2, b.y2) - max(a.y, b.y)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    return inter / float(a.area + b.area - inter)


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (n, 4) / (m, 4) arrays of (x, y, w, h) rows."""
    a = np.asarray(a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(b, dtype=np.float64).reshape(-1, 4)
    ax2, ay2 = a[:, 0] + a[:, 2], a[:, 1] + a[:, 3]
    bx2, by2 = b[:, 0] + b[:, 2], b[:, 1] + b[:, 3]
    ix = np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(a[:, None, 0], b[None, :, 0])
    iy = np.minimum(ay2[:, None], by2[None, :]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(ix, 0, None) * np.clip(iy, 0, None)
    union = (a[:, 2] * a[:, 3])[:, None] + (b[:, 2] * b[:, 3])[None, :] - inter
    return inter / np.maximum(union, 1e-12)


def greedy_keep(rects, beta: float) -> list[int]:
    """Greedy suppression over (n, 4) (x, y, w, h) rows ranked best first: the
    indices of the rows kept, each kept row dropping every later row whose IoU
    with it exceeds beta."""
    clash = iou_matrix(rects, rects) > beta
    suppressed = np.zeros(len(clash), dtype=bool)
    keep = []
    for k in range(len(clash)):
        if not suppressed[k]:
            keep.append(k)
            suppressed |= clash[k]
    return keep


def as_field(data, dtype=np.float32) -> np.ndarray:
    """Coerce to a non-empty 2-D array (row-major)."""
    arr = np.ascontiguousarray(np.asarray(data, dtype=dtype))
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a non-empty 2-D field, got shape {arr.shape}")
    return arr


class IntegralImage:
    """Zero-padded cumulative-sum table over a 2-D field.

    Sums accumulate in float64 regardless of the source dtype; any rectangle
    sum is four table lookups.
    """

    def __init__(self, field):
        field = as_field(field, dtype=np.float64)
        self.height, self.width = field.shape
        table = np.zeros((self.height + 1, self.width + 1), dtype=np.float64)
        table[1:, 1:] = field.cumsum(axis=0).cumsum(axis=1)
        self.table = table

    def rect_sums(self, x0, y0, x1, y1) -> np.ndarray:
        """Sums over the half-open rectangles [x0, x1) x [y0, y1), vectorized over
        index arrays; the caller clips bounds, and empty rects give 0."""
        t = self.table
        s = t[y1, x1] - t[y0, x1] - t[y1, x0] + t[y0, x0]
        return np.where((x1 > x0) & (y1 > y0), s, 0.0)
