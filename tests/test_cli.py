import json
import os
import shlex
import sys

import numpy as np
import pytest

import streamdet.cli
from streamdet.cli import _build_config, build_parser, main
from streamdet.config import ConfigError
from streamdet.edges import spatial_edge
from streamdet.imio import read_jsonl, read_pgm, read_ppm, write_pgm


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
    (["--rho", "1.5"], "rho", 1.5),
    (["--tau-kl", "0.7"], "tau_kl", 0.7),
    (["--max-proposals", "25"], "max_proposals", 25),
    (["--seed", "9"], "seed", 9),
    (["--classifier", "cmd:true"], "classifier", "cmd:true"),
])
def test_pipeline_flags_reach_the_config(flags, field, value):
    args = build_parser().parse_args(["detect", "frames", "--out", "d"] + flags)
    assert getattr(_build_config(args), field) == value


def test_k_flag_rejects_a_fraction():
    args = build_parser().parse_args(["cluster", "frames", "--out", "d", "--k", "2.5"])
    with pytest.raises(ConfigError, match="--k"):
        _build_config(args)


# each command takes only the flags it reads
@pytest.mark.parametrize("argv", [
    ["segment-prior", "frames", "--clusters", "c.jsonl", "--out", "d", "--k", "3"],
    ["propose", "frames", "--out", "d", "--classifier", "oracle"],
])
def test_flags_a_command_does_not_read_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


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


def test_segment_prior_writes_one_frame_sized_pair_per_cluster(tmp_path, capsys):
    video = _synth(tmp_path)
    config = _round_trip_config(tmp_path)
    clusters = tmp_path / "cluster"
    assert main(["cluster", str(video / "frames"), "--flow-dir", str(video / "flow"),
                 "--out", str(clusters), "--config", str(config)]) == 0
    keys = {(r["frame"], r["global_id"])
            for r in read_jsonl(clusters / "clusters.jsonl")}
    out = tmp_path / "priors"
    assert main(["segment-prior", str(video / "frames"), "--clusters",
                 str(clusters / "clusters.jsonl"), "--out", str(out)]) == 0
    index = read_jsonl(out / "priors.jsonl")
    assert len(index) == len(keys)
    assert {(r["frame"], r["global_id"]) for r in index} == keys
    for r in index:
        assert read_pgm(out / r["prior"]).shape == (72, 96)
        assert read_pgm(out / r["mask"]).shape == (72, 96)
    # the threshold is checked before any input is read
    assert main(["segment-prior", str(tmp_path / "missing"), "--clusters",
                 str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "bad"),
                 "--threshold", "1.5"]) == 2
    assert "--threshold" in capsys.readouterr().err


@pytest.mark.parametrize("flags, calls, shape", [([], 1, (72, 96)),
                                                 (["--resize", "64"], 0, (64, 64))],
                         ids=["native", "resize-64"])
def test_segment_prior_reads_at_most_one_frame(tmp_path, monkeypatch, capsys,
                                               flags, calls, shape):
    video = _synth(tmp_path)
    clusters = tmp_path / "cluster"
    assert main(["cluster", str(video / "frames"), "--flow-dir", str(video / "flow"),
                 "--out", str(clusters), "--config",
                 str(_round_trip_config(tmp_path))]) == 0
    read = []
    monkeypatch.setattr(streamdet.cli, "read_ppm",
                        lambda path: read.append(path) or read_ppm(path))
    out = tmp_path / "priors"
    assert main(["segment-prior", str(video / "frames"), "--clusters",
                 str(clusters / "clusters.jsonl"), "--out", str(out)] + flags) == 0
    assert len(read) == calls
    for r in read_jsonl(out / "priors.jsonl"):
        assert read_pgm(out / r["prior"]).shape == shape
        assert read_pgm(out / r["mask"]).shape == shape
    # a directory without frames still exits 3, also when no frame is read
    (tmp_path / "empty").mkdir()
    assert main(["segment-prior", str(tmp_path / "empty"), "--clusters",
                 str(clusters / "clusters.jsonl"), "--out", str(out)] + flags) == 3
    assert "no .ppm frames found" in capsys.readouterr().err


def test_config_with_unknown_key_exits_2(tmp_path, capsys):
    video = _synth(tmp_path)
    config = tmp_path / "config.json"
    # unknown keys (one a fixed constant), and a known one of the wrong type
    for doc, message in [({"subseq_len": 3, "no_such_key": 1}, "no_such_key"),
                         ({"step_iou": 0.65}, "unknown config key 'step_iou'"),
                         ({"classes": "red"}, "classes must be a list of strings")]:
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
