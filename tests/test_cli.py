import json
import os
import shlex
import sys
import time

import numpy as np
import pytest

import streamdet.propagation
from streamdet.cli import _build_config, build_parser, main
from streamdet.config import ConfigError
from streamdet.edges import spatial_edge
from streamdet.evaluate import gt_index
from streamdet.imio import read_ppm, write_jsonl, write_pgm, write_ppm


@pytest.mark.parametrize("flags, resize", [(["--resize", "0"], None),
                                           (["--resize", "64"], 64),
                                           ([], None)])
def test_resize_flag(flags, resize):
    args = build_parser().parse_args(["detect", "frames", "--out", "d.jsonl"]
                                     + flags)
    assert _build_config(args).resize == resize


@pytest.mark.parametrize("flags, field, value", [
    (["--lambda", "0.4"], "lam", 0.4),
    (["--subseq-len", "4"], "subseq_len", 4),
    (["--k", "3"], "k", 3),
    (["--k", "auto"], "self_tune", True),
    (["--lambda", "0"], "lam", 0.0),   # a zero is a value, not a missing flag
    (["--k", "auto"], "k", 5),         # self-tuning keeps k as its cap
    (["--max-proposals", "25"], "max_proposals", 25),
    (["--seed", "9"], "seed", 9),
    (["--classifier", "cmd:true"], "classifier", "cmd:true"),
])
def test_pipeline_flags_reach_the_config(flags, field, value):
    args = build_parser().parse_args(["detect", "frames", "--out", "d"] + flags)
    assert getattr(_build_config(args), field) == value


def test_k_flag_turns_off_the_config_files_self_tuning(tmp_path):
    config = tmp_path / "st.json"
    config.write_text(json.dumps({"self_tune": True}))
    args = build_parser().parse_args(["detect", "f", "--out", "d", "--config",
                                      str(config), "--k", "3"])
    built = _build_config(args)
    assert (built.k, built.self_tune) == (3, False)


def test_k_flag_rejects_a_fraction():
    args = build_parser().parse_args(["cluster", "frames", "--out", "d", "--k", "2.5"])
    with pytest.raises(ConfigError, match="--k"):
        _build_config(args)


# each command takes only the flags it reads
@pytest.mark.parametrize("argv", [
    ["cluster", "frames", "--out", "d", "--classifier", "oracle"],
    ["propose", "frames", "--out", "d", "--classifier", "oracle"],
    # the PMI exponent and the KL threshold are constants
    *([command, "frames", "--out", "d", flag, "1.5"]
      for command in ("propose", "cluster", "detect")
      for flag in ("--rho", "--tau-kl")),
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["propose", "cluster", "detect"])
def test_every_stream_option_has_help(command):
    import argparse
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    assert len(actions) > 10
    assert [a.dest for a in actions if not (a.help or "").strip()] == []


def _synth(tmp_path):
    spec = {"n_frames": 7, "width": 96, "height": 72, "seed": 2, "noise": 8.0,
            "objects": [{"color": "red", "size": [26, 22], "start": [8, 24],
                         "velocity": [3, 0]}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    video = tmp_path / "video"
    assert main(["synth", "--spec", str(spec_path), "--out", str(video)]) == 0
    return video


def _round_trip_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_box_area": 250.0, "lam": 0.5,
                                  "self_tune": True, "max_proposals": 20}))
    return config


# without the flag the frames keep their native size, so the boxes are in the
# ground truth's coordinates and the flow files fit
@pytest.mark.parametrize("flags", [["--resize", "0"], []], ids=["resize-0", "native"])
def test_synth_detect_eval_round_trip(tmp_path, capsys, flags):
    video = _synth(tmp_path)
    config = _round_trip_config(tmp_path)
    out = tmp_path / "det"
    assert main(["detect", str(video / "frames"), "--flow-dir", str(video / "flow"),
                 "--out", str(out), "--config", str(config)] + flags) == 0
    metrics_path = tmp_path / "metrics.json"
    assert main(["eval", "--pred", str(out / "detections.jsonl"),
                 "--gt", str(video / "gt.json"), "--mode", "detection",
                 "--out", str(metrics_path)]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["detection"]["red"]["recall"] > 0


def test_propose_and_cluster_emit_each_window_once(tmp_path, capsys):
    video = _synth(tmp_path)
    config = _round_trip_config(tmp_path)
    outputs = {}
    for command, name in [("propose", "proposals.jsonl"), ("cluster", "clusters.jsonl")]:
        out = tmp_path / command
        assert main([command, str(video / "frames"), "--flow-dir", str(video / "flow"),
                     "--out", str(out), "--config", str(config)]) == 0
        outputs[command] = [json.loads(line)
                            for line in (out / name).read_text().splitlines()]
    windows = [(r["frame"], r["x"], r["y"], r["w"], r["h"]) for r in outputs["propose"]]
    assert {w[0] for w in windows} == set(range(7))
    assert len(set(windows)) == len(windows)
    # the sub-sequences share a frame; each window is still reported once
    assert [(r["frame"], r["x"], r["y"], r["w"], r["h"])
            for r in outputs["cluster"]] == windows
    assert all(type(r["global_id"]) is int for r in outputs["cluster"])


def test_config_with_unknown_key_exits_2(tmp_path, capsys):
    video = _synth(tmp_path)
    config = tmp_path / "config.json"
    # unknown keys (three fixed constants), known ones of the wrong type or
    # outside their range, and both spellings of lambda
    for doc, message in [({"subseq_len": 3, "no_such_key": 1}, "no_such_key"),
                         ({"step_iou": 0.65}, "unknown config key 'step_iou'"),
                         ({"classes": "red"}, "classes must be a list of strings"),
                         ({"rho": 1.2}, "unknown config key 'rho'"),
                         ({"tau_kl": 2.0}, "unknown config key 'tau_kl'"),
                         ({"classes": []}, "classes must be distinct names"),
                         ({"lambda": 0.9, "lam": 0.1}, "'lambda' and 'lam'"),
                         ({"lam": 0.1, "lambda": 0.9}, "'lambda' and 'lam'")]:
        config.write_text(json.dumps(doc))
        code = main(["detect", str(video / "frames"), "--out", str(tmp_path / "det"),
                     "--config", str(config)])
        assert code == 2
        assert message in capsys.readouterr().err


def _detect_with_edges_dir(tmp_path, video, edges):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_box_area": 250.0, "max_proposals": 10,
                                  "edges_dir": str(edges)}))
    return main(["detect", str(video / "frames"), "--flow-dir", str(video / "flow"),
                 "--out", str(tmp_path / "det"), "--config", str(config),
                 "--resize", "0"])


def test_edges_dir_with_a_map_per_frame(tmp_path, capsys):
    video = _synth(tmp_path)
    edges = tmp_path / "edges"
    edges.mkdir()
    for name in sorted(os.listdir(video / "frames")):
        magnitude, _ = spatial_edge(read_ppm(video / "frames" / name))
        write_pgm(edges / name.replace(".ppm", ".pgm"),
                  np.round(magnitude * 255).astype(np.uint8))
    assert _detect_with_edges_dir(tmp_path, video, edges) == 0
    stats = json.loads((tmp_path / "det" / "stats.json").read_text())
    assert stats["frames"] == 7 and stats["total_windows"] > 0


def test_edges_dir_without_maps_exits_3(tmp_path, capsys):
    video = _synth(tmp_path)
    edges = tmp_path / "edges"
    edges.mkdir()
    assert _detect_with_edges_dir(tmp_path, video, edges) == 3
    err = capsys.readouterr().err
    assert str(edges) in err and "found 0 edge maps for 7 frames" in err


def test_class_the_oracle_cannot_score_exits_2_before_any_output(tmp_path, capsys):
    video = _synth(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classes": ["red", "yellow"]}))
    out = tmp_path / "det"
    assert main(["detect", str(video / "frames"), "--out", str(out),
                 "--config", str(config)]) == 2
    assert "class 'yellow'" in capsys.readouterr().err
    assert not out.exists()


# each reader checks that a document or record is a JSON object holding the
# keys it reads, and names the file (and, for JSON lines, the line)
@pytest.mark.parametrize("case", ["spec-array", "gt-array", "pred-line-array",
                                  "pred-without-class"])
def test_malformed_json_input_exits_3_naming_the_file(tmp_path, capsys, case):
    video = _synth(tmp_path)
    capsys.readouterr()
    array = tmp_path / "array.json"
    array.write_text("[1, 2]\n")
    pred = tmp_path / "pred.jsonl"
    record = {"frame": 0, "x": 8, "y": 24, "w": 26, "h": 22, "class": "red"}
    write_jsonl(pred, [record])
    gt = video / "gt.json"
    if case == "spec-array":
        argv, message = ["synth", "--spec", str(array), "--out", str(tmp_path / "v")], \
            f"{array}: expected a JSON object"
    elif case == "gt-array":
        argv, message = ["eval", "--pred", str(pred), "--gt", str(array)], \
            f"{array}: expected a JSON object"
    elif case == "pred-line-array":
        pred.write_text(json.dumps(record) + "\n\n[1, 2]\n")
        argv, message = ["eval", "--pred", str(pred), "--gt", str(gt)], \
            f"{pred}, line 3: expected a JSON object"
    else:
        write_jsonl(pred, [{k: v for k, v in record.items() if k != "class"}])
        argv, message = ["eval", "--pred", str(pred), "--gt", str(gt)], \
            f"{pred}, line 1: no 'class' key"
    if argv[0] == "eval":
        argv += ["--mode", "detection"]
    assert main(argv) == 3
    assert message in capsys.readouterr().err


# a value of the wrong type exits 3 too, naming the file, the line or item
# and the key
@pytest.mark.parametrize("case", ["spec-width-string", "recall-x-string",
                                  "recall-frame-array", "consistency-id-string",
                                  "gt-classes-number", "gt-id-array"])
def test_json_value_of_the_wrong_type_exits_3_naming_the_file(tmp_path, capsys, case):
    video = _synth(tmp_path)
    capsys.readouterr()
    record = {"frame": 0, "x": 8, "y": 24, "w": 26, "h": 22, "global_id": 1}
    pred = tmp_path / "pred.jsonl"
    eval_argv = ["eval", "--pred", str(pred), "--gt", str(video / "gt.json"), "--mode"]
    if case == "spec-width-string":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_frames": 3, "width": "64", "height": 48}))
        argv = ["synth", "--spec", str(spec), "--out", str(tmp_path / "v")]
        message = f"{spec}: 'width' must be an integer, got \"64\""
    elif case == "recall-x-string":
        write_jsonl(pred, [record, dict(record, x="a")])
        argv = eval_argv + ["recall"]
        message = f"{pred}, line 2: 'x' must be a number, got \"a\""
    elif case == "recall-frame-array":
        write_jsonl(pred, [dict(record, frame=[0])])
        argv = eval_argv + ["recall"]
        message = f"{pred}, line 1: 'frame' must be an integer, got [0]"
    elif case == "consistency-id-string":
        write_jsonl(pred, [dict(record, global_id="a")])
        argv = eval_argv + ["consistency"]
        message = f"{pred}, line 1: 'global_id' must be an integer, got \"a\""
    else:
        # predictions valid in both modes: only the ground truth is at fault
        write_jsonl(pred, [dict(record, **{"class": "red"})])
        gt_path = video / "gt.json"
        gt = json.loads(gt_path.read_text())
        if case == "gt-classes-number":
            gt["classes"] = [1, "red"]
            argv = eval_argv + ["detection"]
            message = f"{gt_path}: 'classes' must be an array of strings, got [1, \"red\"]"
        else:
            gt["frames"][0]["objects"][0]["id"] = [0]
            argv = eval_argv + ["purity"]
            message = (f"{gt_path}: frames[0].objects[0]: 'id' must be an integer "
                       f"or a string, got [0]")
        gt_path.write_text(json.dumps(gt))
    assert main(argv) == 3
    assert message in capsys.readouterr().err


_SPEC = {"n_frames": 3, "width": 64, "height": 48,
         "objects": [{"color": "red", "size": [12, 10], "start": [5, 5]}]}


# an optional key is checked whenever it is there
@pytest.mark.parametrize("case, key, value, wording", [
    ("spec-seed", "seed", "a", "an integer"),
    ("object-velocity", "velocity", "ab", "two integers"),
    ("object-enter", "enter", [1], "an integer"),
    ("object-exit", "exit", 2.5, "an integer or null"),
    ("prediction-confidence", "confidence", "a", "a number"),
])
def test_optional_json_value_of_the_wrong_type_exits_3_naming_the_file(
        tmp_path, capsys, case, key, value, wording):
    if case.startswith("prediction"):
        video = _synth(tmp_path)
        path = tmp_path / "pred.jsonl"
        write_jsonl(path, [{"frame": 0, "x": 8, "y": 24, "w": 26, "h": 22,
                            "class": "red", key: value}])
        argv = ["eval", "--pred", str(path), "--gt", str(video / "gt.json"),
                "--mode", "detection"]
        where = f"{path}, line 1"
    else:
        doc = json.loads(json.dumps(_SPEC))
        if case.startswith("spec"):
            doc[key], where = value, None
        else:
            doc["objects"][0][key], where = value, "objects[0]"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        argv = ["synth", "--spec", str(path), "--out", str(tmp_path / "v")]
        where = f"{path}: {where}" if where else str(path)
    capsys.readouterr()
    assert main(argv) == 3
    assert f"{where}: {key!r} must be {wording}, got {json.dumps(value)}" \
        in capsys.readouterr().err


def test_optional_json_keys_may_be_left_out_or_hold_their_type(tmp_path):
    doc = json.loads(json.dumps(_SPEC))
    doc["objects"][0].update(velocity=[2, 1], enter=0, exit=None)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(doc, seed=4, noise=6.5)))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "a")]) == 0
    spec.write_text(json.dumps({k: v for k, v in _SPEC.items() if k != "objects"}))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 0


# a key that names no field of the spec or of an object exits 3 too, naming
# the file, the object and the key, so that a misspelled one is not dropped
@pytest.mark.parametrize("key", ["nosie", "velocty"])
def test_misspelled_spec_key_exits_3_naming_the_key(tmp_path, capsys, key):
    doc = json.loads(json.dumps(_SPEC))
    if key == "nosie":
        doc[key], where = 6.5, ""
    else:
        doc["objects"][0][key], where = [2, 0], " objects[0]:"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    assert main(["synth", "--spec", str(path), "--out", str(tmp_path / "v")]) == 3
    assert f"{path}:{where} unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_frame_directory_without_frames_exits_3(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["detect", str(tmp_path / "empty"), "--out", str(tmp_path / "det")])
    assert code == 3
    assert "no .ppm frames found" in capsys.readouterr().err


def test_eval_at_takes_only_positive_integers(tmp_path, capsys):
    video = _synth(tmp_path)
    gts = gt_index(json.loads((video / "gt.json").read_text()))
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, [dict(g, frame=frame, score=1.0)
                        for frame, objects in gts.items() for g in objects])
    argv = ["eval", "--pred", str(preds), "--gt", str(video / "gt.json"),
            "--mode", "recall"]
    capsys.readouterr()
    for bad in ["0", "-1", "x"]:
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--at", bad])
        assert exc.value.code == 2
        assert "--at" in capsys.readouterr().err
    assert main(argv + ["--at", "10,50"]) == 0
    assert json.loads(capsys.readouterr().out) == {"recall@10": 1.0, "recall@50": 1.0}


def test_eval_detection_scores_classes_only_predictions_have(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_frames": 3, "width": 64, "height": 48, "seed": 1,
        "objects": [{"color": "red", "size": [16, 12], "start": [8, 8],
                     "velocity": [2, 0]}]}))
    video = tmp_path / "video"
    assert main(["synth", "--spec", str(spec), "--out", str(video)]) == 0
    gts = gt_index(json.loads((video / "gt.json").read_text()))
    red = [dict(g, frame=frame, confidence=0.9)
           for frame, objects in gts.items() for g in objects]
    blue = [dict(r, x=40, y=30, **{"class": "blue"}) for r in red]
    preds = tmp_path / "preds.jsonl"
    write_jsonl(preds, red + blue)
    capsys.readouterr()
    assert main(["eval", "--pred", str(preds), "--gt", str(video / "gt.json"),
                 "--mode", "detection"]) == 0
    scores = json.loads(capsys.readouterr().out)["detection"]
    assert list(scores) == ["blue", "red"]
    assert scores["red"]["precision"] == 1.0 and scores["red"]["tp"] == 3
    assert scores["blue"] == {"precision": 0.0, "recall": 0.0, "tp": 0,
                              "predictions": 3, "ground_truth": 0}


def test_synth_renders_objects_crossing_the_frame_edges(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "n_frames": 6, "width": 40, "height": 30, "objects": [
            {"color": "red", "size": [10, 10], "start": [28, 5], "velocity": [1, 0]},
            {"color": "blue", "size": [10, 10], "start": [2, 18],
             "velocity": [-1, 1]}]}))
    video = tmp_path / "video"
    assert main(["synth", "--spec", str(spec), "--out", str(video)]) == 0
    last = json.loads((video / "gt.json").read_text())["frames"][5]["objects"]
    assert [(o["x"], o["y"], o["w"], o["h"]) for o in last] == [
        (33, 5, 7, 10), (0, 23, 7, 7)]


def test_truncated_ppm_exits_3(tmp_path, capsys):
    video = _synth(tmp_path)
    frames = video / "frames"
    first = sorted(os.listdir(frames))[0]
    data = (frames / first).read_bytes()
    (frames / first).write_bytes(data[:len(data) // 2])
    code = main(["detect", str(frames), "--out", str(tmp_path / "det"),
                 "--resize", "0"])
    assert code == 3
    assert "truncated" in capsys.readouterr().err


def test_truncated_flow_exits_3(tmp_path, capsys):
    video = _synth(tmp_path)
    flows = video / "flow"
    first = sorted(os.listdir(flows))[0]
    data = (flows / first).read_bytes()
    (flows / first).write_bytes(data[:len(data) // 2])
    code = main(["detect", str(video / "frames"), "--flow-dir", str(flows),
                 "--out", str(tmp_path / "det"), "--resize", "0"])
    assert code == 3
    assert "truncated flow payload" in capsys.readouterr().err


@pytest.mark.parametrize("flow", [False, True], ids=["no-flow", "flow-dir"])
def test_frame_of_another_size_exits_3_before_any_stage(tmp_path, capsys, flow):
    video = _synth(tmp_path)
    frames = video / "frames"
    odd = sorted(os.listdir(frames))[3]
    write_ppm(frames / odd, np.zeros((40, 50, 3), dtype=np.uint8))
    out = tmp_path / "det"
    argv = ["detect", str(frames), "--out", str(out)]
    code = main(argv + (["--flow-dir", str(video / "flow")] if flow else []))
    assert code == 3
    err = capsys.readouterr().err
    assert odd in err and "50x40" in err and "96x72" in err
    assert not out.exists()


def _scores_stub(value):
    return ("import json, sys\n"
            "for line in sys.stdin:\n"
            "    n = len(json.loads(line)['boxes'])\n"
            f"    print(json.dumps({{'scores': [[{value}] * 4] * n}}), flush=True)\n")


def _reply_stub(text):
    return ("import sys\n"
            "for line in sys.stdin:\n"
            f"    print({text!r}, flush=True)\n")


def test_classifier_that_exits_at_once_exits_4_and_writes_stats(tmp_path, capsys):
    video = _synth(tmp_path)
    # one that exits at once, ones whose scores are not finite (json writes
    # them as Infinity and NaN), one whose reply is not an object and one
    # whose scores are not numbers
    for n, script in enumerate(["pass", _scores_stub("float('inf')"),
                                _scores_stub("float('nan')"), _reply_stub("[1]"),
                                _reply_stub('{"scores": [["a", 1, 2, 3]]}')]):
        out = tmp_path / f"det{n}"
        classifier = f"cmd:exec {shlex.quote(sys.executable)} -c {shlex.quote(script)}"
        code = main(["detect", str(video / "frames"), "--flow-dir", str(video / "flow"),
                     "--out", str(out), "--resize", "0", "--classifier", classifier])
        assert code == 4
        assert "classifier" in capsys.readouterr().err
        stats = json.loads((out / "stats.json").read_text())
        assert stats["frames"] == 7 and stats["classifier_calls"] == 0
        assert (out / "detections.jsonl").read_text() == ""


# classify_always is the one per-frame switch, and the error says so
def test_classifier_always_exits_2_naming_classify_always(tmp_path, capsys):
    video = _synth(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"classifier": "always"}))
    out = tmp_path / "det"
    for flags in (["--config", str(config)], ["--classifier", "always"]):
        assert main(["detect", str(video / "frames"), "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert "classify_always" in err and "'always'" in err
        assert not out.exists()


def test_classify_always_through_a_command_classifier_scores_every_window(
        tmp_path, capsys):
    video = _synth(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_box_area": 250.0, "max_proposals": 10,
                                  "classify_always": True}))
    script = _scores_stub("0.1")
    out = tmp_path / "det"
    assert main(["detect", str(video / "frames"), "--flow-dir", str(video / "flow"),
                 "--out", str(out), "--resize", "0", "--config", str(config),
                 "--classifier", f"cmd:exec {shlex.quote(sys.executable)} "
                                 f"-c {shlex.quote(script)}"]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["total_windows"] > 0
    assert stats["classified_windows"] == stats["total_windows"]
    assert stats["fraction"] == 1.0


def test_classifier_that_stalls_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(streamdet.propagation, "REPLY_TIMEOUT_S", 0.2)
    monkeypatch.setattr(streamdet.propagation, "CLOSE_TIMEOUT_S", 0.2)
    video = _synth(tmp_path)
    script = "import sys, time\nsys.stdin.readline()\ntime.sleep(30)\n"
    classifier = f"cmd:exec {shlex.quote(sys.executable)} -c {shlex.quote(script)}"
    out = tmp_path / "det"
    started = time.monotonic()
    code = main(["detect", str(video / "frames"), "--flow-dir", str(video / "flow"),
                 "--out", str(out), "--resize", "0", "--classifier", classifier])
    assert code == 4
    assert time.monotonic() - started < 10.0
    assert "no reply within 0.2 s" in capsys.readouterr().err
    stats = json.loads((out / "stats.json").read_text())
    assert stats["classifier_calls"] == 0


def _exited(pid: int) -> bool:
    """Whether a process has exited: it is gone, or a zombie awaiting its
    reaper."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_classifier_that_outlives_eof_is_killed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(streamdet.propagation, "CLOSE_TIMEOUT_S", 0.2)
    video = _synth(tmp_path)
    # without exec, /bin/sh runs the classifier as its child, and killing
    # the shell alone would leave it running
    for n, prefix in enumerate(["exec ", ""]):
        pid_file = tmp_path / f"pid{n}"
        # answers every request, then lingers after its input ends
        script = ("import os, pathlib, time\n"
                  f"pathlib.Path({str(pid_file)!r}).write_text(str(os.getpid()))\n"
                  + _scores_stub("0.1") + "time.sleep(15)\n")
        out = tmp_path / f"det{n}"
        classifier = (f"cmd:{prefix}{shlex.quote(sys.executable)} "
                      f"-c {shlex.quote(script)}")
        code = main(["detect", str(video / "frames"), "--flow-dir", str(video / "flow"),
                     "--out", str(out), "--resize", "0", "--classifier", classifier])
        assert code == 0
        assert json.loads((out / "stats.json").read_text())["classifier_calls"] > 0
        assert (out / "detections.jsonl").exists()
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 1.0
        while not _exited(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert _exited(pid), f"spec prefix {prefix!r} left pid {pid} running"
