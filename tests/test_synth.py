import runpy
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from streamdet import synth
from streamdet.synth import ObjectSpec, SyntheticSpec, render, spec_from_dict

BENCH_SPECS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "scenes.py"))["SPECS"]

WIDTH, HEIGHT = 40, 30

# (start, velocity) of a 10x10 object that crosses one frame edge at frame 3
EDGES = {"right": ((28, 5), (1, 0)), "left": ((2, 5), (-1, 0)),
         "bottom": ((5, 18), (0, 1)), "top": ((5, 2), (0, -1))}


def _background():
    # the background is drawn before any object texture, so an empty spec
    # with the same seed renders the same one
    return render(SyntheticSpec(n_frames=2, width=WIDTH, height=HEIGHT)).frames[0]


@pytest.mark.parametrize("edge", EDGES)
def test_object_crossing_an_edge_is_cropped_to_the_frame(edge):
    start, velocity = EDGES[edge]
    obj = ObjectSpec("red", (10, 10), start, velocity=velocity)
    video = render(SyntheticSpec(n_frames=6, width=WIDTH, height=HEIGHT,
                                 objects=[obj]))
    background = _background()
    for t in range(6):
        box = obj.box_at(t)
        x, y = max(box.x, 0), max(box.y, 0)
        x2, y2 = min(box.x2, WIDTH), min(box.y2, HEIGHT)
        assert video.gt[t] == [{"id": 0, "class": "red", "x": x, "y": y,
                                "w": x2 - x, "h": y2 - y}]
        visible = np.zeros((HEIGHT, WIDTH), dtype=bool)
        visible[y:y2, x:x2] = True
        assert np.array_equal(np.any(video.frames[t] != background, axis=2),
                              visible)
        if t < 5:
            flow = video.flows[t]
            assert np.array_equal(np.any(flow != 0, axis=2), visible)
            assert (flow[visible] == velocity).all()
    assert video.gt[5][0]["w"] * video.gt[5][0]["h"] < 100


def test_object_outside_the_frame_leaves_no_trace():
    leaving = ObjectSpec("red", (10, 10), (36, 5), velocity=(3, 0))   # gone at 2
    outside = ObjectSpec("blue", (8, 8), (-20, 10), velocity=(-1, 0))
    video = render(SyntheticSpec(n_frames=4, width=WIDTH, height=HEIGHT,
                                 objects=[leaving, outside]))
    assert [[r["x"], r["w"]] for r in video.gt[0]] == [[36, 4]]
    assert [[r["x"], r["w"]] for r in video.gt[1]] == [[39, 1]]
    assert video.gt[2] == [] and video.gt[3] == []
    background = _background()
    assert np.array_equal(video.frames[2], background)
    assert np.array_equal(video.frames[3], background)
    assert np.count_nonzero(video.flows[1][..., 0]) == 10      # one column
    assert not video.flows[2].any()


def test_spec_from_dict_leaves_the_defaults_to_the_dataclasses():
    doc = {"n_frames": 4, "width": WIDTH, "height": HEIGHT,
           "objects": [{"color": "red", "size": [10, 8], "start": [2, 3],
                        "velocity": [1, -1], "enter": 1, "exit": 3},
                       {"color": "blue", "size": [6, 6], "start": [20, 10]}]}
    assert spec_from_dict(doc) == SyntheticSpec(
        n_frames=4, width=WIDTH, height=HEIGHT,
        objects=[ObjectSpec("red", (10, 8), (2, 3), velocity=(1, -1), enter=1, exit=3),
                 ObjectSpec("blue", (6, 6), (20, 10))])


def test_spec_from_dict_checks_the_keys_against_the_dataclasses():
    obj = {"color": "red", "size": [10, 8], "start": [2, 3]}
    doc = {"n_frames": 4, "width": WIDTH, "height": HEIGHT, "background_level": 97.5,
           "objects": [obj]}
    assert spec_from_dict(doc).background_level == 97.5
    for bad, message in [
            ({**doc, "hieght": 3}, "doc: unknown key 'hieght'"),
            ({k: v for k, v in doc.items() if k != "height"}, "doc: no 'height' key"),
            ({**doc, "background_level": True},
             "doc: 'background_level' must be a number, got true"),
            ({**doc, "objects": {}}, "doc: 'objects' must be an array, got {}"),
            ({**doc, "objects": [obj, 3]}, "doc: objects[1]: expected a JSON object, got 3"),
            ({**doc, "objects": [{**obj, "velocty": [2, 0]}]},
             "doc: objects[0]: unknown key 'velocty'"),
            ({**doc, "objects": [{**obj, "start": [2, 3, 4]}]},
             "doc: objects[0]: 'start' must be two integers, got [2, 3, 4]")]:
        with pytest.raises(ValueError) as exc:
            spec_from_dict(bad, "doc")
        assert str(exc.value) == message


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(BENCH_SPECS))
def test_bench_scenes_render_the_frames_of_scipys_smoothing(monkeypatch, workload, seed):
    frames = render(BENCH_SPECS[workload](seed)).frames
    # the background was first smoothed by scipy's gaussian_filter, whose
    # default mode is "reflect"
    monkeypatch.setattr(synth, "gaussian_smooth",
                        lambda field, sigma, mode: gaussian_filter(field, sigma, mode=mode))
    expected = render(BENCH_SPECS[workload](seed)).frames
    assert [f.tobytes() for f in frames] == [f.tobytes() for f in expected]
