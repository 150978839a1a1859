import json
import os

import pytest

from streamdet.cli import _build_config, build_parser, main


@pytest.mark.parametrize("flags, resize", [(["--resize", "0"], None),
                                           (["--resize", "64"], 64),
                                           ([], 500)])
def test_resize_flag(flags, resize):
    args = build_parser().parse_args(["detect", "frames", "--out", "d.jsonl"]
                                     + flags)
    assert _build_config(args).resize == resize


def _synth(tmp_path):
    spec = {"n_frames": 7, "width": 96, "height": 72, "seed": 2, "noise": 8.0,
            "objects": [{"color": "red", "size": [26, 22], "start": [8, 24],
                         "velocity": [3, 0]}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    video = tmp_path / "video"
    assert main(["synth", "--spec", str(spec_path), "--out", str(video)]) == 0
    return video


def test_synth_detect_eval_round_trip(tmp_path, capsys):
    video = _synth(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"min_box_area": 250.0, "lam": 0.5,
                                  "self_tune": True, "max_proposals": 20}))
    out = tmp_path / "det"
    assert main(["detect", str(video / "frames"), "--flow-dir", str(video / "flow"),
                 "--out", str(out), "--config", str(config), "--resize", "0"]) == 0
    metrics_path = tmp_path / "metrics.json"
    assert main(["eval", "--pred", str(out / "detections.jsonl"),
                 "--gt", str(video / "gt.json"), "--mode", "detection",
                 "--out", str(metrics_path)]) == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["detection"]["red"]["recall"] > 0


def test_config_with_unknown_key_exits_2(tmp_path, capsys):
    video = _synth(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"subseq_len": 3, "no_such_key": 1}))
    code = main(["detect", str(video / "frames"), "--out", str(tmp_path / "det"),
                 "--config", str(config)])
    assert code == 2
    assert "no_such_key" in capsys.readouterr().err


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
