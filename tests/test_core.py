import numpy as np
import pytest

from streamdet.core import Box, IntegralImage, iou


def test_iou_identity():
    b = Box(3, 4, 10, 12)
    assert iou(b, b) == 1.0


def test_iou_disjoint():
    assert iou(Box(0, 0, 10, 10), Box(20, 20, 5, 5)) == 0.0


def test_iou_half_overlap():
    assert iou(Box(0, 0, 10, 10), Box(0, 0, 5, 10)) == pytest.approx(0.5)


def test_iou_symmetric_and_bounded():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = Box(*rng.integers(0, 40, 2).tolist(), *rng.integers(1, 30, 2).tolist())
        b = Box(*rng.integers(0, 40, 2).tolist(), *rng.integers(1, 30, 2).tolist())
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        Box(0, 0, 0, 5)
    with pytest.raises(ValueError):
        Box(0, 0, 5, -1)


def test_integral_zero_field():
    ii = IntegralImage(np.zeros((8, 8)))
    assert np.all(ii.table == 0.0)


def test_integral_ones_full_box():
    ii = IntegralImage(np.ones((2, 2)))
    assert ii.rect_sums(0, 0, 2, 2) == 4.0


def test_integral_empty_field_rejected():
    with pytest.raises(ValueError):
        IntegralImage(np.zeros((0, 4)))


def test_box_sum_unit_box():
    f = np.zeros((5, 5))
    f[2, 3] = 7.5
    ii = IntegralImage(f)
    assert ii.rect_sums(3, 2, 4, 3) == pytest.approx(7.5)


def test_box_sum_matches_bruteforce():
    rng = np.random.default_rng(11)
    field = rng.random((64, 64))
    ii = IntegralImage(field)
    for _ in range(1000):
        w = int(rng.integers(1, 64))
        h = int(rng.integers(1, 64))
        x = int(rng.integers(0, 64 - w + 1))
        y = int(rng.integers(0, 64 - h + 1))
        expect = field[y:y + h, x:x + w].sum()
        got = ii.rect_sums(x, y, x + w, y + h)
        assert got == pytest.approx(expect, rel=1e-9)


def test_nested_box_sums_monotone():
    rng = np.random.default_rng(3)
    field = rng.random((32, 32))
    ii = IntegralImage(field)
    for _ in range(200):
        w = int(rng.integers(3, 20))
        h = int(rng.integers(3, 20))
        x = int(rng.integers(0, 32 - w))
        y = int(rng.integers(0, 32 - h))
        outer = ii.rect_sums(x, y, x + w, y + h)
        inner = ii.rect_sums(x + 1, y + 1, x + w - 1, y + h - 1)
        assert outer >= inner - 1e-12


def test_integral_linearity():
    rng = np.random.default_rng(5)
    f = rng.random((16, 16))
    g = rng.random((16, 16))
    alpha, beta = 2.5, -0.75
    combined = IntegralImage(alpha * f + beta * g)
    separate = alpha * IntegralImage(f).table + beta * IntegralImage(g).table
    assert np.allclose(combined.table, separate, rtol=1e-12, atol=1e-9)


def test_clamped_box():
    b = Box(-5, 90, 20, 20).clamped(100, 100)
    assert (b.x, b.y, b.w, b.h) == (0, 80, 20, 20)
