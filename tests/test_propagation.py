import os
import re
import subprocess
import sys
from collections import Counter
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from streamdet.clustering import ClusterRegistry, RegistryEntry, cluster_descriptor
from streamdet.config import PipelineConfig
from streamdet.core import Box, iou
from streamdet.propagation import (Detection, OracleColorClassifier,
                                   _detection_nms, box_to_quadruple, carry_box,
                                   detect_stream, fit_location_gaussian,
                                   make_classifier, propagate_localization,
                                   quadruple_to_box, record_offset,
                                   stream_cluster)
from streamdet.synth import ObjectSpec, SyntheticSpec, render


def _descriptor_stub():
    row = np.zeros(49)
    row[[5, 20, 35]] = 1.0
    row[45:] = (0.5, 0.5, 0.3, 0.3)
    return cluster_descriptor(row[None, :])


def test_gaussian_identical_boxes():
    b = Box(10, 12, 20, 16)
    mean = fit_location_gaussian([b] * 4)
    assert mean == pytest.approx([20.0, 20.0, 16.0, 20.0])


def test_gaussian_jittered_mean():
    rng = np.random.default_rng(0)
    base = Box(30, 25, 24, 18)
    boxes = [Box(base.x + int(rng.integers(-5, 6)), base.y + int(rng.integers(-5, 6)),
                 base.w, base.h) for _ in range(400)]
    mean = fit_location_gaussian(boxes)
    q = box_to_quadruple(base)
    assert np.all(np.abs(mean[:2] - q[:2]) <= 1.0)


def test_gaussian_translation_equivariance():
    rng = np.random.default_rng(1)
    boxes = [Box(int(rng.integers(5, 20)), int(rng.integers(5, 20)),
                 int(rng.integers(5, 15)), int(rng.integers(5, 15)))
             for _ in range(25)]
    moved = [Box(b.x + 7, b.y - 3, b.w, b.h) for b in boxes]
    m0 = fit_location_gaussian(boxes)
    m1 = fit_location_gaussian(moved)
    assert m1[0] - m0[0] == pytest.approx(7.0)
    assert m1[1] - m0[1] == pytest.approx(-3.0)
    assert m1[2:] == pytest.approx(m0[2:])


def _registry_with_cluster():
    reg = ClusterRegistry()
    gid = reg.new_id()
    reg.entries[gid] = RegistryEntry(_descriptor_stub())
    return reg, gid


def test_record_offset_at_mean_is_zero():
    reg, gid = _registry_with_cluster()
    boxes = [Box(10, 10, 20, 20)] * 3
    model = fit_location_gaussian(boxes)
    d = record_offset(reg, gid, Box(10, 10, 20, 20), model)
    assert d == pytest.approx([0, 0, 0, 0])


def test_record_offset_definition():
    reg, gid = _registry_with_cluster()
    model = fit_location_gaussian([Box(10, 10, 20, 20)] * 3)
    d = record_offset(reg, gid, Box(13, 10, 20, 20), model)
    assert d == pytest.approx([3, 0, 0, 0])


def test_record_offset_unknown_id():
    reg, _ = _registry_with_cluster()
    with pytest.raises(KeyError):
        record_offset(reg, 99, Box(0, 0, 5, 5), fit_location_gaussian([Box(0, 0, 5, 5)]))


def test_offset_roundtrip_identity():
    reg, gid = _registry_with_cluster()
    rng = np.random.default_rng(2)
    for _ in range(50):
        boxes = [Box(int(rng.integers(0, 40)), int(rng.integers(0, 40)),
                     int(rng.integers(4, 30)), int(rng.integers(4, 30)))
                 for _ in range(6)]
        model = fit_location_gaussian(boxes)
        detected = Box(int(rng.integers(0, 40)), int(rng.integers(0, 40)),
                       int(rng.integers(4, 30)), int(rng.integers(4, 30)))
        d = record_offset(reg, gid, detected, model)
        back = propagate_localization(model, d)
        assert back == detected


def test_propagate_zero_offset():
    model = fit_location_gaussian([Box(8, 6, 10, 12)] * 2)
    assert propagate_localization(model, np.zeros(4)) == Box(8, 6, 10, 12)


def test_propagate_translated_cluster():
    boxes = [Box(10, 10, 12, 12), Box(12, 10, 12, 12), Box(11, 12, 12, 12)]
    model0 = fit_location_gaussian(boxes)
    detected = Box(12, 11, 12, 12)
    d = box_to_quadruple(detected) - model0
    shifted = [Box(b.x + 5, b.y, b.w, b.h) for b in boxes]
    model1 = fit_location_gaussian(shifted)
    out = propagate_localization(model1, d)
    expect = Box(detected.x + 5, detected.y, detected.w, detected.h)
    assert abs(out.x - expect.x) <= 1 and abs(out.y - expect.y) <= 1
    assert out.w == expect.w and out.h == expect.h


def test_propagate_clamps_to_frame():
    model = fit_location_gaussian([Box(90, 90, 20, 20)] * 2)
    box = propagate_localization(model, np.array([50.0, 50.0, 0.0, 0.0]),
                                 frame_size=(100, 100))
    assert box.x2 <= 100 and box.y2 <= 100
    assert box.w >= 1 and box.h >= 1


def test_quadruple_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        b = Box(int(rng.integers(0, 50)), int(rng.integers(0, 50)),
                int(rng.integers(1, 40)), int(rng.integers(1, 40)))
        assert quadruple_to_box(box_to_quadruple(b)) == b


def test_oracle_classifier_scores():
    frame = np.zeros((40, 40, 3), dtype=np.uint8)
    frame[5:20, 5:20] = (210, 40, 40)       # red block
    frame[25:38, 25:38] = (120, 120, 120)   # gray block
    clf = OracleColorClassifier()
    scores = clf.classify(frame, [Box(5, 5, 15, 15), Box(25, 25, 13, 13)])
    assert scores.shape == (2, 4)
    assert np.argmax(scores[0]) == 0 and scores[0, 0] > 0.5
    assert np.argmax(scores[1]) == 3  # background wins on gray


def test_oracle_scores_a_box_fitting_the_object_above_a_strip_inside_it():
    frame = np.full((60, 80, 3), 110, dtype=np.uint8)
    frame[20:40, 20:50] = (40, 200, 50)     # green object
    fitting, strip = Box(20, 20, 30, 20), Box(20, 26, 30, 6)
    scores = OracleColorClassifier().classify(frame, [fitting, strip])
    # both are equally pure green; only the fitting box covers the object
    assert np.argmax(scores[0]) == 1 and scores[0, 1] > 0.5
    assert scores[1, 1] < scores[0, 1]


def test_oracle_matches_a_per_box_count_reference():
    rng = np.random.default_rng(11)
    frame = rng.integers(0, 256, size=(50, 70, 3), dtype=np.uint8)
    frame[10:30, 15:40] = (200, 30, 60)
    boxes = [Box(int(rng.integers(0, 60)), int(rng.integers(0, 40)),
                 int(rng.integers(1, 11)), int(rng.integers(1, 11)))
             for _ in range(40)] + [Box(15, 10, 25, 20), Box(0, 0, 70, 50)]
    pixels = frame.astype(np.int64)
    top = pixels.max(axis=2)
    vivid = top - pixels.min(axis=2) > 40
    expected = np.zeros((len(boxes), 4))
    for bi, b in enumerate(boxes):
        gx, gy = max(b.x - b.w // 2, 0), max(b.y - b.h // 2, 0)
        gx2, gy2 = min(b.x2 + b.w // 2, 70), min(b.y2 + b.h // 2, 50)
        mean = pixels[b.y:b.y2, b.x:b.x2].reshape(-1, 3).mean(axis=0)
        for c in range(3):
            shows = vivid & (pixels[..., c] == top)
            around = shows[gy:gy2, gx:gx2].sum()
            coverage = shows[b.y:b.y2, b.x:b.x2].sum() / around if around else 0.0
            expected[bi, c] = mean[c] / max(mean.sum(), 1e-9) * coverage
    expected[:, 3] = 1.0 - expected[:, :3].max(axis=1)
    assert np.allclose(OracleColorClassifier().classify(frame, boxes), expected,
                       rtol=0, atol=1e-12)


def test_carry_box_moves_by_the_rounded_median_of_the_moving_pixels():
    flow = np.full((40, 60, 2), 20.0, dtype=np.float32)   # outside the box
    box = Box(10, 10, 10, 10)

    def carry(inside):
        flow[10:20, 10:20] = np.reshape(inside, (10, 10, 2))
        return carry_box(box, flow, (60, 40))
    inside = np.full((100, 2), (0.3, -0.3))  # 69 pixels too slow to count
    inside[:20] = (2.6, -1.4)
    inside[20:31] = (9.0, 9.0)
    assert carry(inside) == Box(13, 9, 10, 10)
    # no pixel of the box moves: the median over all of them stays put
    assert carry(np.full((100, 2), (0.3, -0.3))) == box
    # the median rounds to the nearest pixel
    assert carry(np.full((100, 2), (1.6, -2.4))) == Box(12, 8, 10, 10)


def test_carry_box_clamps_to_the_frame_edge():
    flow = np.zeros((40, 60, 2), dtype=np.float32)
    flow[..., 0] = 8.0
    flow[..., 1] = -8.0
    box = Box(45, 4, 12, 10)
    assert carry_box(box, flow, (60, 40)) == Box(48, 0, 12, 10)


def test_make_classifier_specs():
    clf, always = make_classifier("oracle")
    assert isinstance(clf, OracleColorClassifier) and not always
    with pytest.raises(ValueError):
        make_classifier("nonsense")


def _scene_config(**kw):
    base = dict(lam=0.5, subseq_len=3, self_tune=True, max_proposals=40,
                min_box_area=250.0, resize=None, seed=7)
    base.update(kw)
    return PipelineConfig(**base)


def _single_mover(n_frames=9, seed=3):
    spec = SyntheticSpec(
        n_frames=n_frames, width=96, height=72, seed=seed, noise=8.0,
        objects=[ObjectSpec("red", (26, 22), (8, 24), velocity=(3, 0))])
    return render(spec)


class _RecordingClassifier(OracleColorClassifier):
    """Oracle that logs each call as (frame index, boxes)."""

    def __init__(self, frames):
        super().__init__()
        self._index = {id(frame): i for i, frame in enumerate(frames)}
        self.calls = []

    def classify(self, frame, boxes, frame_path=None):
        self.calls.append((self._index[id(frame)], list(boxes)))
        return super().classify(frame, boxes, frame_path)


def _scored_members(rec, always):
    """The members of a record the stream scores, in slot order: every window
    in classify-always mode, else the windows each cluster new in the record
    has in its earliest frame of the record."""
    members = []
    for lab, run in rec.cluster_members.items():
        if always:
            members += run
        elif rec.global_ids[lab] in rec.new_ids:
            first = min(rec.window_ids[m][0] for m in run)
            members += [m for m in run if rec.window_ids[m][0] == first]
    return sorted(members)


def _expected_calls(video, config):
    """(frame, boxes) of each call the stream should make, in its order: one
    per frame of each sub-sequence, holding in slot order the windows of the
    clusters new in it, in each one's earliest frame of the sub-sequence,
    that no earlier call scored."""
    calls, scored = [], set()
    for rec in stream_cluster(video.frames, video.flows, config):
        new = [m for m in _scored_members(rec, False)
               if rec.window_ids[m] not in scored]
        scored.update(rec.window_ids[m] for m in new)
        calls += [(fi, [rec.proposals[m].box for m in run]) for fi, run in
                  groupby(new, key=lambda m: rec.window_ids[m][0])]
    return calls


def test_detect_stream_single_object_economy():
    video = _single_mover()
    config = _scene_config()
    clf = _RecordingClassifier(video.frames)
    detections, stats, registry = detect_stream(video.frames, video.flows,
                                                config, clf)
    assert stats.classified_windows / stats.total_windows <= 1 / 3
    # no classifier call ever happens for an inherited (non-new) cluster id
    assert clf.calls == _expected_calls(video, config)
    assert detections
    labels = {d.label for d in detections}
    assert labels == {"red"}
    assert _found_frac(detections, video) >= 0.8


def _found_frac(detections, video):
    """The share of a single-object video's frames where a detection covers
    the object at IoU >= 0.5."""
    hit = 0
    for t, (g,) in enumerate(video.gt):
        gbox = Box(g["x"], g["y"], g["w"], g["h"])
        hit += any(iou(d.box, gbox) >= 0.5 for d in detections if d.frame == t)
    return hit / len(video.gt)


# the default clustering path: k fixed (PipelineConfig's self_tune is false)
@pytest.mark.parametrize("seed", [1, 2, 3, 5])
def test_detect_stream_with_fixed_k_keeps_the_economy(seed):
    video = _single_mover(seed=seed)
    config = _scene_config(self_tune=False)
    assert config.k == PipelineConfig().k
    detections, stats, _ = detect_stream(video.frames, video.flows, config,
                                         OracleColorClassifier())
    assert stats.classified_windows / stats.total_windows <= 1 / 3
    assert _found_frac(detections, video) >= 0.8


def test_detect_stream_propagated_provenance():
    video = _single_mover()
    config = _scene_config()
    detections, stats, _ = detect_stream(video.frames, video.flows, config,
                                         OracleColorClassifier())
    # a cluster is classified in one frame only: its first while its id is new
    classified_frames = {}
    for d in detections:
        if d.provenance == "classified":
            classified_frames.setdefault(d.global_id, set()).add(d.frame)
    assert all(len(frames) == 1 for frames in classified_frames.values())
    provs = {d.provenance for d in detections}
    assert "classified" in provs
    assert "propagated" in provs


def test_detect_stream_classify_always_fraction_one():
    video = _single_mover()
    config = _scene_config(classify_always=True)
    detections, stats, _ = detect_stream(video.frames, video.flows, config,
                                         OracleColorClassifier())
    assert stats.classified_windows / stats.total_windows == 1.0


def test_detect_stream_deterministic():
    video = _single_mover()
    config = _scene_config()
    a = detect_stream(video.frames, video.flows, config, OracleColorClassifier())
    b = detect_stream(video.frames, video.flows, config, OracleColorClassifier())
    recs_a = [d.to_record() for d in a[0]]
    recs_b = [d.to_record() for d in b[0]]
    assert recs_a == recs_b
    assert a[1].to_record() == b[1].to_record()


def _new_object(red_exit=None):
    spec = SyntheticSpec(
        n_frames=12, width=110, height=80, seed=5, noise=8.0,
        objects=[ObjectSpec("red", (24, 20), (6, 12), velocity=(2, 0),
                            exit=red_exit),
                 ObjectSpec("blue", (22, 22), (70, 46), velocity=(-2, 0),
                            enter=6)])
    return render(spec)


def test_new_object_triggers_classification_burst():
    video = _new_object()
    config = _scene_config()
    clf = _RecordingClassifier(video.frames)
    detections, stats, _ = detect_stream(video.frames, video.flows, config, clf)
    labels = {d.label for d in detections}
    assert labels == {"red", "blue"}
    # the blue entry at frame 6 causes new-cluster calls in the sub-sequence
    # containing frame 6 (frames 6-8 -> sub-sequence index 3); frames 0-2
    # are the first sub-sequence's, frames from 3 on only later ones'
    call_frames = {fi for fi, _ in clf.calls}
    assert min(call_frames) <= 2
    assert max(call_frames) >= 6, "expected a classification burst for the entering object"


def test_detect_stream_economy_steady_across_renderings():
    # the scene seed only changes render noise and textures; which windows
    # get classified must not depend on it
    for seed in range(1, 4):
        video = render(SyntheticSpec(
            n_frames=9, width=96, height=72, seed=seed, noise=8.0,
            objects=[ObjectSpec("red", (26, 22), (8, 24), velocity=(3, 0))]))
        _, stats, _ = detect_stream(video.frames, video.flows, _scene_config(),
                                    OracleColorClassifier())
        assert stats.clusters_created == 1
        assert stats.classified_windows / stats.total_windows == pytest.approx(1 / 9)


def test_detection_nms_matches_greedy_iou_loop_with_tied_confidences():
    rng = np.random.default_rng(43)
    for beta in (0.3, 0.5):
        dets = []
        for _ in range(200):
            w = int(rng.integers(4, 20))
            h = int(rng.integers(4, 20))
            box = Box(int(rng.integers(0, 30)), int(rng.integers(0, 30)), w, h)
            dets.append(Detection(int(rng.integers(0, 3)), box,
                                  ["red", "blue"][int(rng.integers(0, 2))],
                                  float(rng.integers(0, 3)) / 2, "classified", 0))
        expected = []
        for det in sorted(dets, key=lambda d: (d.frame, d.label, -d.confidence,
                                               d.box.as_tuple())):
            if not any(k.frame == det.frame and k.label == det.label
                       and iou(k.box, det.box) > beta for k in expected):
                expected.append(det)
        expected.sort(key=lambda d: (d.frame, -d.confidence, d.box.as_tuple()))
        kept = _detection_nms(dets, beta)
        assert [id(d) for d in kept] == [id(d) for d in expected]


@pytest.mark.parametrize("subseq_len", [3, 4, 5])
def test_stream_without_flow_source_computes_each_flow_once(monkeypatch, subseq_len):
    import streamdet.propagation as propagation
    video = render(SyntheticSpec(n_frames=9, width=48, height=40, seed=3, objects=[
        ObjectSpec("red", (14, 12), (6, 10), velocity=(2, 1))]))
    frames = video.frames
    calls, converted = [], []
    block_matching_flow, to_gray = propagation.block_matching_flow, propagation.to_gray

    def counting(f1, f2, *args):
        # block matching gets the two frames' luma
        i = next(k for k, f in enumerate(frames) if np.array_equal(to_gray(f), f1))
        assert np.array_equal(f2, to_gray(frames[i + 1]))
        calls.append(i)
        flow = block_matching_flow(f1, f2, *args)
        assert flow.tobytes() == block_matching_flow(frames[i], frames[i + 1]).tobytes()
        return flow

    def converting(frame):
        converted.append(next(k for k, f in enumerate(frames) if f is frame))
        return to_gray(frame)
    monkeypatch.setattr(propagation, "block_matching_flow", counting)
    monkeypatch.setattr(propagation, "to_gray", converting)
    config = PipelineConfig(subseq_len=subseq_len, max_proposals=8, seed=0)
    records = list(propagation.stream_cluster(frames, None, config))
    assert records[-1].frame_ids[-1] == 8
    assert sorted(calls) == list(range(8))
    # each frame's luma is made once for the flows into and out of it
    assert converted == list(range(9))


@pytest.mark.parametrize("case", ["float", "uint16", "gray"])
def test_stream_rejects_frames_that_are_not_8_bit_rgb(case):
    # every stage works on the 8-bit scale: float frames in [0, 1] would run
    # to no detections, and 16-bit ones to collapsed colour histograms
    frames = _single_mover(n_frames=5).frames
    bad = {"float": frames[3] / 255.0, "uint16": frames[3].astype(np.uint16) * 257,
           "gray": frames[3][..., 0]}[case]
    frames = frames[:3] + [bad] + frames[4:]
    config = _scene_config()
    message = f"frame 3 must be an (h, w, 3) uint8 RGB array, got {bad.dtype} " \
              f"of shape {bad.shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        next(stream_cluster(frames, None, config))
    with pytest.raises(ValueError, match="frame 3"):
        detect_stream(frames, None, config, OracleColorClassifier())


def test_detect_stream_rejects_an_empty_frame_list():
    with pytest.raises(ValueError, match="need at least 2 frames, got 0"):
        detect_stream([], None, _scene_config(), OracleColorClassifier())


def test_stream_rejects_a_frame_of_another_size_before_any_record():
    # the first sub-sequence reads frames 0-2 only, so the odd frame 3 must
    # be caught up front, not when a stage first reaches it
    video = _single_mover(n_frames=5)
    frames = list(video.frames)
    frames[3] = frames[3][:40]
    message = "frame 3 is 96x40, but frame 0 is 96x72"
    with pytest.raises(ValueError, match=re.escape(message)):
        next(stream_cluster(frames, video.flows, _scene_config()))
    with pytest.raises(ValueError, match=re.escape(message)):
        detect_stream(frames, video.flows, _scene_config(), OracleColorClassifier())


def _record_key(rec):
    return (rec.frame_ids, [(p.box.as_tuple(), p.score, p.frame_index)
                            for p in rec.proposals],
            rec.labels.tolist(), rec.cluster_members, rec.global_ids,
            rec.new_ids, rec.emit_frames)


def test_stream_requests_each_edge_map_once():
    from streamdet.edges import spatial_edge
    import streamdet.propagation as propagation
    video = _single_mover(n_frames=7)
    config = _scene_config(max_proposals=10)
    requested = []

    def some_maps(i):
        requested.append(i)
        return spatial_edge(video.frames[i])[0] if i % 2 == 0 else None
    records = list(propagation.stream_cluster(video.frames, video.flows, config,
                                              edge_maps=some_maps))
    assert records[-1].frame_ids[-1] == 6
    assert sorted(requested) == list(range(7))

    def no_maps(i):
        return None
    with_source = propagation.stream_cluster(video.frames, video.flows, config,
                                             edge_maps=no_maps)
    without = propagation.stream_cluster(video.frames, video.flows, config)
    assert ([_record_key(r) for r in with_source]
            == [_record_key(r) for r in without])


def test_command_classifier_close_closes_both_pipes():
    import sys
    echo = ("import json, sys\n"
            "for line in sys.stdin:\n"
            "    n = len(json.loads(line)['boxes'])\n"
            "    print(json.dumps({'scores': [[0.7, 0.1, 0.1, 0.1]] * n}), flush=True)\n")
    clf, _ = make_classifier(f"cmd:exec {sys.executable} -c \"{echo}\"")
    frame = np.zeros((8, 8, 3), dtype=np.uint8)
    scores = clf.classify(frame, [Box(0, 0, 4, 4), Box(2, 2, 4, 4)])
    assert scores.shape == (2, 4)
    proc = clf._proc
    clf.close()
    assert proc.stdin.closed and proc.stdout.closed
    assert proc.returncode == 0


def test_command_classifier_reads_a_buffered_reply_without_waiting(monkeypatch):
    import sys
    import streamdet.propagation as propagation
    monkeypatch.setattr(propagation, "REPLY_TIMEOUT_S", 0.2)
    monkeypatch.setattr(propagation, "CLOSE_TIMEOUT_S", 0.2)
    # answers the first request with two replies in one write, then stalls
    stub = ("import json, sys, time\n"
            "n = len(json.loads(sys.stdin.readline())['boxes'])\n"
            "reply = json.dumps({'scores': [[0.7, 0.1, 0.1, 0.1]] * n})\n"
            "sys.stdout.write(reply + '\\n' + reply + '\\n')\n"
            "sys.stdout.flush()\n"
            "time.sleep(30)\n")
    clf, _ = make_classifier(f"cmd:exec {sys.executable} -c \"{stub}\"")
    frame = np.zeros((8, 8, 3), dtype=np.uint8)
    boxes = [Box(0, 0, 4, 4)]
    try:
        assert clf.classify(frame, boxes).shape == (1, 4)
        assert clf.classify(frame, boxes).shape == (1, 4)   # the buffered line
        with pytest.raises(propagation.ClassifierProtocolError, match="no reply"):
            clf.classify(frame, boxes)
    finally:
        clf.close()
    assert clf._proc.returncode is not None


def test_command_classifier_that_exited_fails_the_next_request():
    import sys
    import streamdet.propagation as propagation
    # replies to one request, then exits
    once = ("import json, sys\n"
            "n = len(json.loads(sys.stdin.readline())['boxes'])\n"
            "print(json.dumps({'scores': [[0.7, 0.1, 0.1, 0.1]] * n}), flush=True)\n")
    clf, _ = make_classifier(f"cmd:exec {sys.executable} -c \"{once}\"")
    frame = np.zeros((8, 8, 3), dtype=np.uint8)
    boxes = [Box(0, 0, 4, 4)]
    try:
        assert clf.classify(frame, boxes).shape == (1, 4)
        proc = clf._proc
        proc.wait(timeout=10)
        # however long after the exit it comes, the request is not answered
        # by a restarted classifier
        with pytest.raises(propagation.ClassifierProtocolError):
            clf.classify(frame, boxes)
        assert clf._proc is proc
    finally:
        clf.close()


@pytest.mark.parametrize("self_tune", [True, False])
def test_subsequences_with_at_most_one_window(monkeypatch, self_tune):
    # no pairs: the uniform fallback affinity goes to either spectral function
    import streamdet.propagation as propagation
    from streamdet.proposals import Proposal
    video = _single_mover(n_frames=7)
    config = _scene_config(self_tune=self_tune)
    window = Box(8, 24, 26, 22)          # the red object in frame 0

    monkeypatch.setattr(propagation, "generate_proposals",
                        lambda edges, groups, config, frame_index=0: [])
    records = list(propagation.stream_cluster(video.frames, video.flows, config))
    assert [r.frame_ids for r in records] == [[0, 1, 2], [2, 3, 4], [4, 5, 6]]
    for rec in records:
        assert rec.proposals == [] and rec.window_ids == [] and rec.labels.size == 0
        assert rec.cluster_members == {} and rec.global_ids == {} and rec.new_ids == set()
    detections, stats, _ = detect_stream(video.frames, video.flows, config,
                                         OracleColorClassifier())
    assert detections == [] and stats.total_windows == 0
    assert stats.classifier_calls == 0

    def one_window(edges, groups, config, frame_index=0):
        return [Proposal(window, 1.0, frame_index)] if frame_index == 0 else []
    monkeypatch.setattr(propagation, "generate_proposals", one_window)
    detections, stats, registry = detect_stream(video.frames, video.flows, config,
                                                OracleColorClassifier())
    assert stats.total_windows == 1 and stats.clusters_created == 1
    # the cluster is dropped once a sub-sequence has no windows
    assert len(registry.entries) == 0
    assert stats.classifier_calls == 1 and stats.classified_windows == 1
    assert [(d.frame, d.box, d.label, d.provenance) for d in detections] == [
        (0, window, "red", "classified")]


def test_registry_holds_exactly_the_latest_records_clusters():
    video = _new_object(red_exit=5)
    registry = ClusterRegistry()
    seen = set()
    for rec in stream_cluster(video.frames, video.flows, _scene_config(), registry):
        assert set(registry.entries) == set(rec.global_ids.values())
        seen |= set(rec.global_ids.values())
    assert len(registry) < len(seen)


@pytest.mark.parametrize("always", [False, True], ids=["new-only", "always"])
@pytest.mark.parametrize("scene", [_single_mover, _new_object])
def test_stats_count_classified_windows_and_calls(scene, always):
    video = scene()
    config = _scene_config(classify_always=always)
    # every window the stream scores (see _scored_members), over the whole
    # stream; a window of a shared frame is the same (frame, slot) in both of
    # its records. Each record makes one call per frame holding windows no
    # earlier call scored
    windows, calls = set(), 0
    for rec in stream_cluster(video.frames, video.flows, config):
        unscored = {rec.window_ids[m] for m in _scored_members(rec, always)} - windows
        windows |= unscored
        calls += len({fi for fi, _ in unscored})
    _, stats, _ = detect_stream(video.frames, video.flows, config,
                                OracleColorClassifier())
    assert stats.classified_windows == len(windows) > 0
    assert stats.classifier_calls == calls


@pytest.mark.parametrize("always", [False, True], ids=["new-only", "always"])
@pytest.mark.parametrize("scene", [_single_mover, _new_object])
def test_each_window_is_scored_once_in_one_request_per_frame(monkeypatch, scene, always):
    import streamdet.propagation as propagation
    video = scene()
    clf = _RecordingClassifier(video.frames)
    record_starts = []          # clf.calls' length as each record arrives

    def marking(*args, **kwargs):
        for rec in stream_cluster(*args, **kwargs):
            record_starts.append(len(clf.calls))
            yield rec
    monkeypatch.setattr(propagation, "stream_cluster", marking)
    _, stats, _ = detect_stream(video.frames, video.flows,
                                _scene_config(classify_always=always), clf)
    received = [(fi, box) for fi, boxes in clf.calls for box in boxes]
    assert len(set(received)) == len(received) == stats.classified_windows > 0
    assert len(clf.calls) == stats.classifier_calls
    bounds = record_starts + [len(clf.calls)]
    for start, end in zip(bounds, bounds[1:]):
        call_frames = [fi for fi, _ in clf.calls[start:end]]
        assert call_frames == sorted(set(call_frames))


def test_partial_stats_count_the_windows_of_every_reply_received():
    from streamdet.propagation import ClassifierProtocolError
    video = _new_object()

    # the scene makes two requests: frame 0 (red) and frame 6 (blue enters)
    class FailsSecondRequest(_RecordingClassifier):
        def classify(self, frame, boxes, frame_path=None):
            if len(self.calls) == 1:
                raise ClassifierProtocolError("no reply")
            return super().classify(frame, boxes, frame_path)
    clf = FailsSecondRequest(video.frames)
    with pytest.raises(ClassifierProtocolError) as exc:
        detect_stream(video.frames, video.flows, _scene_config(), clf)
    _, stats = exc.value.partial
    assert stats.classifier_calls == 1
    assert stats.classified_windows == sum(len(boxes) for _, boxes in clf.calls) > 0


@pytest.mark.parametrize("always", [False, True], ids=["new-only", "always"])
@pytest.mark.parametrize("scene", [_single_mover, _new_object])
def test_each_new_cluster_is_scored_in_one_frame_per_record(monkeypatch, scene, always):
    import streamdet.propagation as propagation
    video = scene()
    clf = _RecordingClassifier(video.frames)
    records, starts = [], []

    def marking(*args, **kwargs):
        for rec in stream_cluster(*args, **kwargs):
            records.append(rec)
            starts.append(len(clf.calls))
            yield rec
    monkeypatch.setattr(propagation, "stream_cluster", marking)
    detect_stream(video.frames, video.flows, _scene_config(classify_always=always), clf)
    bounds = starts + [len(clf.calls)]
    received = [{(fi, box) for fi, boxes in clf.calls[a:b] for box in boxes}
                for a, b in zip(bounds, bounds[1:])]
    assert any(rec.new_ids for rec in records)
    for t, rec in enumerate(records):
        # what the record scores, with the scores of its shared frame that
        # the record before made
        kept = {(fi, box) for fi, box in received[t - 1]
                if fi == rec.frame_ids[0]} if t else set()
        scored = received[t] | kept
        for lab, members in rec.cluster_members.items():
            windows = {(p.frame_index, p.box) for p in map(rec.proposals.__getitem__, members)}
            if always:
                assert windows <= scored
            elif rec.global_ids[lab] in rec.new_ids:
                first = min(fi for fi, _ in windows)
                assert windows & scored == {w for w in windows if w[0] == first}


def test_carried_box_pushed_past_the_frame_edge_stays_inside():
    video = _single_mover()
    height, width = video.frames[0].shape[:2]
    # a flow far faster than the object pushes every carried box to the edge
    push = np.zeros((height, width, 2), dtype=np.float32)
    push[..., 0] = 40.0
    detections, _, _ = detect_stream(video.frames, [push] * (len(video.frames) - 1),
                                     _scene_config(), OracleColorClassifier())
    carried = [d.box for d in detections if d.provenance == "propagated"]
    assert carried and any(b.x2 == width for b in carried)
    for d in detections:
        assert 0 <= d.box.x and d.box.x2 <= width
        assert 0 <= d.box.y and d.box.y2 <= height


def _static_and_mover(seed):
    """A mover and a static object: the temporal edge sees only the mover, so
    the static object rests on the spatial edge (alone at lam 0)."""
    return render(SyntheticSpec(n_frames=17, width=128, height=96, seed=seed, objects=[
        ObjectSpec("red", (24, 20), (6, 10), velocity=(3, 0)),
        ObjectSpec("blue", (22, 22), (90, 60))]))


@pytest.mark.parametrize("lam", [0.5, 0.0])
@pytest.mark.parametrize("seed", [4, 5])
def test_detect_stream_finds_a_static_object_beside_a_mover(seed, lam):
    video = _static_and_mover(seed)
    config = _scene_config(lam=lam)
    detections, _, _ = detect_stream(video.frames, video.flows, config,
                                     OracleColorClassifier())
    seen, hits = Counter(), Counter()
    for t, objs in enumerate(video.gt):
        for g in objs:
            gbox = Box(g["x"], g["y"], g["w"], g["h"])
            seen[g["class"]] += 1
            hits[g["class"]] += any(d.frame == t and d.label == g["class"]
                                    and iou(d.box, gbox) >= 0.5 for d in detections)
    assert set(seen) == {"red", "blue"}
    assert all(hits[cls] / seen[cls] >= 0.9 for cls in seen), hits


def _five_objects(seed):
    """Five objects of three classes entering and leaving at staggered frames."""
    return render(SyntheticSpec(n_frames=40, width=128, height=96, seed=seed, objects=[
        ObjectSpec("red", (24, 20), (4, 10), velocity=(2, 0), enter=0, exit=18),
        ObjectSpec("green", (22, 22), (100, 60), velocity=(-2, 0), enter=6, exit=26),
        ObjectSpec("blue", (20, 24), (80, 4), velocity=(0, 2), enter=12, exit=32),
        ObjectSpec("red", (26, 18), (10, 70), velocity=(3, 0), enter=20),
        ObjectSpec("green", (20, 20), (100, 8), velocity=(-1, 0), enter=28),
    ]))


@pytest.mark.parametrize("seed", [1, 5, 6])
def test_detect_stream_recalls_five_objects_classifying_a_tenth(seed):
    from streamdet.evaluate import detection_pr
    video = _five_objects(seed)
    config = _scene_config(max_proposals=20)
    detections, stats, _ = detect_stream(video.frames, video.flows, config,
                                         OracleColorClassifier())
    per_class = detection_pr([d.to_record() for d in detections],
                             dict(enumerate(video.gt)), config.classes)
    tp = sum(c["tp"] for c in per_class.values())
    n_gt = sum(c["ground_truth"] for c in per_class.values())
    assert tp / n_gt >= 0.8
    assert stats.classified_windows / stats.total_windows <= 0.1


# run in a fresh interpreter: the modules the test session imported (scipy
# among them) would hide an import the package makes
_NO_SCIPY = """
import json, os, sys
import streamdet.propagation
from streamdet.cli import main

tmp = sys.argv[1]
spec = os.path.join(tmp, "spec.json")
with open(spec, "w") as fh:
    json.dump({"n_frames": 5, "width": 48, "height": 40, "seed": 2, "objects": [
        {"color": "red", "size": [12, 10], "start": [6, 14], "velocity": [2, 0]}]}, fh)
config = os.path.join(tmp, "config.json")
with open(config, "w") as fh:
    json.dump({"max_proposals": 10, "subseq_len": 3}, fh)
flows = []
block_matching_flow = streamdet.propagation.block_matching_flow
streamdet.propagation.block_matching_flow = lambda *a: flows.append(a) or block_matching_flow(*a)
assert main(["synth", "--spec", spec, "--out", os.path.join(tmp, "video")]) == 0
assert main(["detect", os.path.join(tmp, "video", "frames"), "--config", config,
             "--out", os.path.join(tmp, "det")]) == 0
print(len(flows))
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_detect_computing_its_own_flow_loads_no_scipy(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["4", "[]"]
