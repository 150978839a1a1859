"""Synthetic test videos: textured backgrounds, moving colored rectangles,
exact ground truth and exact optical flow."""

from __future__ import annotations

import json
import os
from dataclasses import MISSING, dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .core import Box
from .edges import gaussian_smooth
from .imio import _check_object, write_ppm
from .motion import write_flow

COLORS = {
    "red": (205, 40, 40),
    "green": (40, 200, 45),
    "blue": (45, 50, 205),
    "yellow": (200, 190, 40),
}


@dataclass
class ObjectSpec:
    color: str                     # class name, one of COLORS
    size: tuple[int, int]          # (w, h)
    start: tuple[int, int]         # (x, y) at the entry frame
    velocity: tuple[int, int] = (0, 0)   # integer px/frame
    enter: int = 0
    exit: int | None = None        # first frame the object is absent

    def box_at(self, frame: int) -> Box | None:
        if frame < self.enter or (self.exit is not None and frame >= self.exit):
            return None
        t = frame - self.enter
        return Box(self.start[0] + self.velocity[0] * t,
                   self.start[1] + self.velocity[1] * t,
                   self.size[0], self.size[1])


@dataclass
class SyntheticSpec:
    n_frames: int
    width: int
    height: int
    seed: int = 0
    noise: float = 10.0
    background_level: float = 110.0
    objects: list[ObjectSpec] = field(default_factory=list)

    def __post_init__(self):
        if self.n_frames < 2:
            raise ValueError("need at least 2 frames")
        if len(self.objects) > 5:
            raise ValueError("at most 5 objects supported")
        for obj in self.objects:
            if obj.color not in COLORS:
                raise ValueError(f"unknown object color {obj.color!r}")


@dataclass
class SyntheticVideo:
    frames: list[np.ndarray]            # (h, w, 3) uint8
    flows: list[np.ndarray]             # (h, w, 2) float32, frame t -> t+1
    gt: list[list[dict]]                # per frame: {id, class, x, y, w, h}
    spec: SyntheticSpec


def _background(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    """Gray uint8 RGB background: Gaussian noise smoothed at sigma 1.5 with
    mirrored borders (``edges.gaussian_smooth``, the same bits as scipy's
    ``gaussian_filter`` in its default "reflect" mode), scaled so that its
    largest deviation is ``spec.noise``, around ``spec.background_level``."""
    base = rng.normal(0.0, 1.0, size=(spec.height, spec.width))
    base = gaussian_smooth(base, 1.5, "reflect")
    base = base / max(np.abs(base).max(), 1e-9) * spec.noise
    gray = np.clip(spec.background_level + base, 0, 255)
    return np.repeat(gray[:, :, None], 3, axis=2).astype(np.uint8)


def _object_patch(obj: ObjectSpec, rng: np.random.Generator) -> np.ndarray:
    w, h = obj.size
    color = np.asarray(COLORS[obj.color], dtype=np.float64)
    texture = rng.normal(0.0, 6.0, size=(h, w, 1))
    patch = np.clip(color[None, None, :] + texture, 0, 255)
    return patch.astype(np.uint8)


def _visible(box: Box | None, width: int, height: int) -> Box | None:
    """The part of a box inside a width x height frame, or None."""
    if box is None:
        return None
    x, y = max(box.x, 0), max(box.y, 0)
    x2, y2 = min(box.x2, width), min(box.y2, height)
    return Box(x, y, x2 - x, y2 - y) if x2 > x and y2 > y else None


def render(spec: SyntheticSpec) -> SyntheticVideo:
    """Render frames, exact per-frame ground truth and exact flow fields.

    Each object carries a fixed texture that translates rigidly with it, so
    the emitted flow (object velocity inside the box, zero elsewhere) is the
    true pixel motion. An object crossing a frame edge is drawn, recorded
    and given flow only over its visible part; one wholly outside the frame
    has none of them.
    """
    rng = np.random.default_rng(spec.seed)
    background = _background(spec, rng)
    patches = [_object_patch(obj, rng) for obj in spec.objects]

    frames: list[np.ndarray] = []
    gt: list[list[dict]] = []
    for t in range(spec.n_frames):
        frame = background.copy()
        records = []
        for oid, obj in enumerate(spec.objects):
            box = obj.box_at(t)
            seen = _visible(box, spec.width, spec.height)
            if seen is None:
                continue
            px0 = seen.x - box.x
            py0 = seen.y - box.y
            frame[seen.y:seen.y2, seen.x:seen.x2] = \
                patches[oid][py0:py0 + seen.h, px0:px0 + seen.w]
            records.append({"id": oid, "class": obj.color,
                            "x": seen.x, "y": seen.y,
                            "w": seen.w, "h": seen.h})
        frames.append(frame)
        gt.append(records)

    flows: list[np.ndarray] = []
    for t in range(spec.n_frames - 1):
        flow = np.zeros((spec.height, spec.width, 2), dtype=np.float32)
        for obj in spec.objects:
            seen = _visible(obj.box_at(t), spec.width, spec.height)
            if seen is None or obj.box_at(t + 1) is None:
                continue
            flow[seen.y:seen.y2, seen.x:seen.x2] = obj.velocity
        flows.append(flow)
    return SyntheticVideo(frames, flows, gt, spec)


def _given(cls, data, where: str, **hints) -> dict:
    """``data`` as keyword arguments of dataclass ``cls``, arrays as tuples,
    if it is a JSON object holding every field without a default and no other
    key, each with a value of the field's type hint (or of its hint in
    ``hints``; see ``imio._check_object``); else a ValueError naming ``where``."""
    hints = get_type_hints(cls) | hints
    required = {f.name: hints[f.name] for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    _check_object(data, required, where, hints)
    for key in data:
        if key not in hints:
            raise ValueError(f"{where}: unknown key {key!r}")
    return {k: tuple(v) if isinstance(v, list) else v for k, v in data.items()}


def spec_from_dict(data, where: str = "spec") -> SyntheticSpec:
    """A SyntheticSpec from a spec document (``streamdet synth --spec``): a
    JSON object whose keys are SyntheticSpec's fields (n_frames, width and
    height required) and whose "objects" hold ObjectSpec's fields (color, size
    and start required), each with a value of the field's type. Any other key
    or a value of another type raises a ValueError naming ``where`` (and an
    object's index): exit code 3 on the command line."""
    given = _given(SyntheticSpec, data, where, objects=list)
    objects = [ObjectSpec(**_given(ObjectSpec, obj, f"{where}: objects[{n}]"))
               for n, obj in enumerate(given.pop("objects", ()))]
    return SyntheticSpec(**given, objects=objects)


def write_video(video: SyntheticVideo, outdir) -> dict:
    """Write frames (PPM), flow files and gt.json; returns the gt document."""
    frames_dir = os.path.join(outdir, "frames")
    flow_dir = os.path.join(outdir, "flow")
    os.makedirs(frames_dir, exist_ok=True)
    os.makedirs(flow_dir, exist_ok=True)
    for t, frame in enumerate(video.frames):
        write_ppm(os.path.join(frames_dir, f"frame_{t:05d}.ppm"), frame)
    for t, flow in enumerate(video.flows):
        write_flow(os.path.join(flow_dir, f"flow_{t:05d}.flo"), flow)
    doc = {
        "width": video.spec.width,
        "height": video.spec.height,
        "n_frames": video.spec.n_frames,
        "classes": sorted({o.color for o in video.spec.objects}),
        "frames": [{"index": t, "objects": video.gt[t]}
                   for t in range(video.spec.n_frames)],
    }
    with open(os.path.join(outdir, "gt.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    return doc
