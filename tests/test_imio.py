import os

import numpy as np
import pytest

from streamdet.imio import (list_frames, read_pgm, read_ppm, resize_nearest,
                            write_pgm, write_ppm)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    pixels = bytes([0, 64, 128, 255, 1, 2])
    path.write_bytes(b"P5\n# made by hand\n3 # width\n2\n# maxval next\n255\n"
                     + pixels)
    img = read_pgm(path)
    assert img.shape == (2, 3) and img.dtype == np.uint8
    assert img.ravel().tolist() == list(pixels)


@pytest.mark.parametrize("data, message", [
    (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
    (b"P6\n2 2\n255\n" + bytes(12), "expected P5"),
    (b"P5\n2 2", "truncated header"),
    (b"P5\n2 2\n255\n" + bytes(3), "truncated pixel data"),
])
def test_bad_pgm_is_rejected(tmp_path, data, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=message):
        read_pgm(path)


def test_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    path = tmp_path / "f.ppm"
    write_ppm(path, img)
    assert np.array_equal(read_ppm(path), img)


def test_pgm_round_trip_and_bool_mask(tmp_path):
    img = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
    write_pgm(tmp_path / "g.pgm", img)
    assert np.array_equal(read_pgm(tmp_path / "g.pgm"), img)
    mask = np.array([[True, False], [False, True]])
    write_pgm(tmp_path / "m.pgm", mask)
    assert read_pgm(tmp_path / "m.pgm").tolist() == [[255, 0], [0, 255]]


def test_list_frames_orders_numbers_by_value(tmp_path):
    for name in ("frame_10.ppm", "frame_2.ppm", "frame_1.ppm", "notes.txt"):
        (tmp_path / name).write_bytes(b"")
    names = [os.path.basename(p) for p in list_frames(tmp_path)]
    assert names == ["frame_1.ppm", "frame_2.ppm", "frame_10.ppm"]


def test_resize_nearest():
    img = np.arange(12).reshape(3, 4)
    assert resize_nearest(img, (4, 3)) is img
    # target row i reads source row i * 3 // 6, target column j reads j * 4 // 2
    assert resize_nearest(img, (2, 6)).tolist() == [
        [0, 2], [0, 2], [4, 6], [4, 6], [8, 10], [8, 10]]
