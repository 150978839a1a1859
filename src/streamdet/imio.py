"""Frame and mask I/O: binary PPM/PGM, nearest-neighbor resize, and JSON and
JSON-lines files whose records are checked to be objects with given keys and
value types."""

from __future__ import annotations

import json
import os
import re
import types

import numpy as np


def _read_pnm_tokens(fh, count: int) -> list[bytes]:
    """Read whitespace-separated header tokens, skipping '#' comments."""
    tokens: list[bytes] = []
    while len(tokens) < count:
        ch = fh.read(1)
        if not ch:
            raise ValueError("truncated header")
        if ch in b" \t\r\n":
            continue
        if ch == b"#":
            while ch and ch not in b"\r\n":
                ch = fh.read(1)
            continue
        token = ch
        while True:
            ch = fh.read(1)
            if not ch or ch in b" \t\r\n":
                break
            token += ch
        tokens.append(token)
    return tokens


def _read_pnm(path, magic: bytes, channels: int) -> np.ndarray:
    with open(path, "rb") as fh:
        got = fh.read(2)
        if got != magic:
            raise ValueError(f"{path}: expected {magic.decode()} file, got {got!r}")
        width, height, maxval = (int(t) for t in _read_pnm_tokens(fh, 3))
        if maxval != 255:
            raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
        data = fh.read(width * height * channels)
    if len(data) != width * height * channels:
        raise ValueError(f"{path}: truncated pixel data")
    arr = np.frombuffer(data, dtype=np.uint8)
    shape = (height, width, channels) if channels > 1 else (height, width)
    return arr.reshape(shape).copy()


def read_ppm(path) -> np.ndarray:
    """Binary P6 RGB image as (h, w, 3) uint8."""
    return _read_pnm(path, b"P6", 3)


def read_pgm(path) -> np.ndarray:
    """Binary P5 grayscale image as (h, w) uint8."""
    return _read_pnm(path, b"P5", 1)


def write_ppm(path, image) -> None:
    arr = np.asarray(image, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"PPM needs (h, w, 3), got {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(arr).tobytes())


def write_pgm(path, image) -> None:
    arr = np.asarray(image)
    if arr.dtype == bool:
        arr = arr.astype(np.uint8) * 255
    arr = arr.astype(np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"PGM needs (h, w), got {arr.shape}")
    h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(np.ascontiguousarray(arr).tobytes())


def load_edge_map(path) -> np.ndarray:
    """PGM file interpreted as edge magnitudes / 255, in [0, 1]."""
    return (read_pgm(path).astype(np.float32)) / 255.0


def resize_nearest(image, size: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbor resize to (width, height)."""
    arr = np.asarray(image)
    width, height = size
    h, w = arr.shape[:2]
    if (w, h) == (width, height):
        return arr
    ys = np.minimum((np.arange(height) * h) // height, h - 1)
    xs = np.minimum((np.arange(width) * w) // width, w - 1)
    return arr[np.ix_(ys, xs)]


_NUM_RE = re.compile(r"(\d+)")


def _numeric_key(name: str):
    parts = _NUM_RE.split(name)
    return tuple(int(p) if p.isdigit() else p for p in parts)


def list_frames(directory, suffix: str = ".ppm") -> list[str]:
    """Frame files in a directory, ordered by the numbers in their names."""
    names = [n for n in os.listdir(directory) if n.endswith(suffix)]
    names.sort(key=_numeric_key)
    return [os.path.join(directory, n) for n in names]


def write_jsonl(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(", ", ": ")) + "\n")


# wording of each expected value type; float stands for any number
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               list[str]: "an array of strings", (int, int): "two integers",
               int | None: "an integer or null", int | str: "an integer or a string"}


def _has_type(value, kind) -> bool:
    """Whether a JSON value is of ``kind``: a type or a union of types (float
    takes any number, and bool counts as none of them), a tuple of kinds,
    one per item of an array that long, or ``list[kind]``, an array of any
    length whose items are of that kind."""
    if isinstance(kind, tuple):
        return (isinstance(value, list) and len(value) == len(kind)
                and all(map(_has_type, value, kind)))
    if isinstance(kind, types.GenericAlias):
        return (isinstance(value, list)
                and all(_has_type(item, kind.__args__[0]) for item in value))
    return (isinstance(value, (int, float) if kind is float else kind)
            and not isinstance(value, bool))


def _check_object(data, keys: dict, where: str, optional: dict | None = None) -> dict:
    """``data`` if it is a JSON object holding every key in ``keys``, and
    each key in ``keys`` or ``optional`` that it holds with a value of the
    type the key maps to (None: any value); else a ValueError naming
    ``where``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object, got "
                         f"{json.dumps(data)[:40]}")
    for key, kind in (keys | (optional or {})).items():
        if key not in data:
            if key in keys:
                raise ValueError(f"{where}: no {key!r} key")
        elif kind is not None and not _has_type(data[key], kind):
            raise ValueError(f"{where}: {key!r} must be {_TYPE_NAMES[kind]}, "
                             f"got {json.dumps(data[key])[:40]}")
    return data


def check_objects(items, keys: dict, where: str,
                  optional: dict | None = None) -> list[dict]:
    """``items`` if it is a JSON array of objects that each hold every key in
    ``keys``, with a value of its type, and any key of ``optional`` with a
    value of its type (see ``_check_object``); else a ValueError naming
    ``where`` and the item's index."""
    if not isinstance(items, list):
        raise ValueError(f"{where}: expected a JSON array, got "
                         f"{json.dumps(items)[:40]}")
    for n, item in enumerate(items):
        _check_object(item, keys, f"{where}[{n}]", optional)
    return items


def read_json(path, keys: dict, optional: dict | None = None) -> dict:
    """A JSON document that must be an object holding every key in ``keys``
    with a value of its type, and any key of ``optional`` with a value of its
    type (see ``_check_object``); anything else raises a ValueError naming
    the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    return _check_object(data, keys, str(path), optional)


def read_jsonl(path, keys: dict | None = None,
               optional: dict | None = None) -> list[dict]:
    """The records of a JSON-lines file, one per non-blank line; a line that
    is not a JSON object holding every key in ``keys`` with a value of its
    type, and any key of ``optional`` with a value of its type (see
    ``_check_object``), raises a ValueError naming the file and the line."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                where = f"{path}, line {n}"
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{where}: not valid JSON ({exc})") from None
                records.append(_check_object(data, keys or {}, where, optional))
    return records
