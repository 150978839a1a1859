import os

import numpy as np
import pytest

from streamdet.imio import (check_objects, list_frames, read_pgm, read_ppm,
                            resize_nearest, write_pgm, write_ppm)


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


def test_check_objects_checks_each_value_type():
    keys = {"size": tuple[int, int], "x": float, "name": str, "any": None}
    good = {"size": [2, 3], "x": 1.5, "name": "a", "any": [None]}
    items = [good, dict(good, x=2, any="b")]
    assert check_objects(items, keys, "doc") is items
    # bool is a JSON true/false, not a number
    for bad, message in [(dict(good, size=[2]), "'size' must be two integers, got [2]"),
                         (dict(good, size=[2, True]), "'size' must be two integers"),
                         (dict(good, size=[2, 3.0]), "'size' must be two integers"),
                         (dict(good, x=True), "'x' must be a number, got true"),
                         (dict(good, name=1), "'name' must be a string, got 1")]:
        with pytest.raises(ValueError) as exc:
            check_objects([good, bad], keys, "doc")
        assert str(exc.value).startswith("doc[1]: ") and message in str(exc.value)


def test_check_objects_reads_the_type_hints_of_the_dataclasses():
    keys = {"flag": bool, "names": tuple[str, ...], "path": str | None,
            "size": tuple[int, int], "items": list}
    good = {"flag": False, "names": ["a", "b"], "path": None, "size": [1, 2], "items": []}
    items = [good, dict(good, names=[], path="p", items=[1, "a"])]
    assert check_objects(items, keys, "doc") is items
    for bad, message in [(dict(good, flag=0), "'flag' must be true or false, got 0"),
                         (dict(good, names=["a", 1]), "'names' must be a list of strings"),
                         (dict(good, names="ab"), "'names' must be a list of strings"),
                         (dict(good, path=3), "'path' must be a string or null, got 3"),
                         (dict(good, size=[1, 2, 3]), "'size' must be two integers"),
                         (dict(good, items={}), "'items' must be an array, got {}")]:
        with pytest.raises(ValueError) as exc:
            check_objects([bad], keys, "doc")
        assert str(exc.value).startswith("doc[0]: ") and message in str(exc.value)
