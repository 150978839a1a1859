"""Command-line front end for the streaming detection pipeline."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .config import ConfigError, PipelineConfig
from .evaluate import (cluster_purity, detection_pr, gt_index, recall_at_n,
                       temporal_consistency)
from .imio import (check_objects, list_frames, load_edge_map, read_json,
                   read_jsonl, read_ppm, resize_nearest, write_jsonl)
from .motion import read_flow
from .propagation import (ClassifierProtocolError, detect_stream, make_classifier,
                          stream_cluster)
from .synth import render, spec_from_dict, write_video

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CLASSIFIER = 4

# the keys each eval input must hold, those it may hold (_EVAL_OPTIONAL), and
# their value types (see imio._check_object: float takes any number; None
# takes any value); a synth spec's keys are the fields of synth.SyntheticSpec
_BOX = {"x": float, "y": float, "w": float, "h": float}
_TRACK = {"frame": int, "global_id": int, **_BOX}
_GT = {"id": int | str, **_BOX}
# per eval mode, the keys it reads of a prediction and of a ground-truth object
_EVAL_KEYS = {"recall": ({"frame": int, **_BOX}, _BOX),
              "purity": (_TRACK, _GT),
              "consistency": (_TRACK, _GT),
              "detection": ({"frame": int, "class": str, **_BOX}, {**_GT, "class": str})}
# per eval mode, the optional keys of a prediction it reads
_EVAL_OPTIONAL = {"recall": {"score": float}, "detection": {"confidence": float}}


def _add_stream_args(parser: argparse.ArgumentParser):
    """Inputs, output and config flags of propose, cluster and detect."""
    parser.add_argument("frames_dir", help="directory of .ppm frames, ordered by "
                                           "the numbers in their names")
    parser.add_argument("--flow-dir",
                        help="directory of .flo files (frame t -> t+1); without "
                             "it, the flow is computed by block matching")
    parser.add_argument("--out", required=True, metavar="DIR",
                        help="output directory, created if missing")
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file; its keys, types and ranges are "
                             "listed in the docstring of "
                             "streamdet.config.PipelineConfig")
    parser.add_argument("--lambda", dest="lam", type=float, metavar="F",
                        help="temporal edge weight in [0, 1]")
    parser.add_argument("--subseq-len", type=int, metavar="N",
                        help="frames per sub-sequence in [3, 5]; consecutive "
                             "ones share one frame")
    parser.add_argument("--k", metavar="N|auto",
                        help="cluster count, which turns self-tuning off, "
                             "or 'auto' for self-tuning")
    parser.add_argument("--max-proposals", type=int, metavar="N",
                        help="proposals per frame, >= 1")
    parser.add_argument("--seed", type=int, metavar="N", help="clustering seed, >= 0")
    parser.add_argument("--resize", type=int, metavar="N",
                        help="square resize target; 0, or no flag, keeps the "
                             "native size. Output boxes are in the resized "
                             "frame's coordinates, so they do not match native "
                             "ground truth. --flow-dir files and edges_dir maps "
                             "must already be at the requested size")


def _build_config(args) -> PipelineConfig:
    config = (PipelineConfig.from_file(args.config) if args.config
              else PipelineConfig())
    overrides = {}
    for name in ("lam", "subseq_len", "max_proposals", "classifier", "seed"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    k = getattr(args, "k", None)
    if k is not None:
        if k == "auto":
            overrides["self_tune"] = True
        else:
            try:
                overrides["k"] = int(k)
            except ValueError:
                raise ConfigError(f"--k must be an integer or 'auto', got {k!r}")
            overrides["self_tune"] = False
    resize = getattr(args, "resize", None)
    if resize is not None:
        overrides["resize"] = None if resize == 0 else resize
    return dataclasses.replace(config, **overrides)


def _load_frames(frames_dir, config: PipelineConfig):
    """The frames (resized under ``config.resize``) and their paths; every
    frame must have the first one's size, checked before any stage runs."""
    paths = list_frames(frames_dir)
    if not paths:
        raise FileNotFoundError(f"no .ppm frames found in {frames_dir}")
    frames = [read_ppm(p) for p in paths]
    if config.resize is not None:
        target = (config.resize, config.resize)
        frames = [resize_nearest(f, target) for f in frames]
    height, width = frames[0].shape[:2]
    for path, frame in zip(paths, frames):
        if frame.shape[:2] != (height, width):
            raise ValueError(f"{path}: frame is {frame.shape[1]}x{frame.shape[0]}, "
                             f"but {paths[0]} is {width}x{height}")
    return frames, paths


def _inputs(args):
    """Config, frames, frame paths, flow source and edge-map source of a
    propose, cluster or detect run."""
    config = _build_config(args)
    frames, paths = _load_frames(args.frames_dir, config)
    shape = np.asarray(frames[0]).shape

    def file_source(directory, suffix, what, count, load):
        # index -> load(that index's file), or None without a directory
        if directory is None:
            return None
        files = list_frames(directory, suffix=suffix)
        if len(files) < count:
            raise FileNotFoundError(f"{directory}: found {len(files)} {what} for "
                                    f"{len(frames)} frames (need {count})")
        return lambda i: load(files[i])

    flows = file_source(args.flow_dir, ".flo", "flow files", len(frames) - 1,
                        lambda path: read_flow(path, frame_shape=shape))
    edge_maps = file_source(config.edges_dir, ".pgm", "edge maps", len(frames),
                            load_edge_map)
    return config, frames, paths, flows, edge_maps


def cmd_synth(args) -> int:
    spec = spec_from_dict(read_json(args.spec, {}), args.spec)
    video = render(spec)
    os.makedirs(args.out, exist_ok=True)
    write_video(video, args.out)
    print(f"wrote {spec.n_frames} frames, {len(video.flows)} flow files and "
          f"gt.json under {args.out}")
    return EXIT_OK


def _write_windows(args, name: str, what: str, fields) -> int:
    """Write ``name`` under ``--out``: one record per emitted window, its frame
    and box, then ``fields(proposal, local cluster label, record)``."""
    config, frames, _, flows, edge_maps = _inputs(args)
    records = []
    for rec in stream_cluster(frames, flows, config, edge_maps=edge_maps):
        records += [{"frame": p.frame_index, "x": p.box.x, "y": p.box.y,
                     "w": p.box.w, "h": p.box.h, **fields(p, lab, rec)}
                    for p, lab in zip(rec.proposals, rec.labels.tolist())
                    if p.frame_index in rec.emit_frames]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, name)
    write_jsonl(out_path, records)
    print(f"wrote {len(records)} {what} to {out_path}")
    return EXIT_OK


def cmd_propose(args) -> int:
    return _write_windows(args, "proposals.jsonl", "proposals",
                          lambda p, lab, rec: {"score": round(p.score, 6)})


def cmd_cluster(args) -> int:
    return _write_windows(
        args, "clusters.jsonl", "cluster assignments",
        lambda p, lab, rec: {"local_cluster": lab, "global_id": rec.global_ids[lab]})


def cmd_detect(args) -> int:
    config, frames, paths, flows, edge_maps = _inputs(args)
    classifier, _ = make_classifier(config.classifier, config.classes)
    os.makedirs(args.out, exist_ok=True)
    det_path = os.path.join(args.out, "detections.jsonl")
    stats_path = os.path.join(args.out, "stats.json")
    failure = None
    try:
        detections, stats, _ = detect_stream(
            frames, flows, config, classifier,
            frame_paths=paths if config.resize is None else None,
            edge_maps=edge_maps)
    except ClassifierProtocolError as exc:
        # detect_stream attaches what it had finished before the failure
        detections, stats = exc.partial
        failure = exc
    finally:
        if hasattr(classifier, "close"):
            classifier.close()
    write_jsonl(det_path, [d.to_record() for d in detections])
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats.to_record(), fh, indent=2)
    if failure is not None:
        print(f"classifier protocol failure: {failure}", file=sys.stderr)
        return EXIT_CLASSIFIER
    print(f"wrote {len(detections)} detections to {det_path}")
    print(json.dumps(stats.to_record(), indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    pred_keys, gt_keys = _EVAL_KEYS[args.mode]
    gt_doc = read_json(args.gt, {"frames": None, "classes": list[str]}
                       if args.mode == "detection" else {"frames": None})
    frames = check_objects(gt_doc["frames"], {"index": int, "objects": None},
                           f"{args.gt}: frames")
    for n, frame in enumerate(frames):
        check_objects(frame["objects"], gt_keys, f"{args.gt}: frames[{n}].objects")
    gts = gt_index(gt_doc)
    preds = read_jsonl(args.pred, pred_keys, _EVAL_OPTIONAL.get(args.mode))
    if args.mode == "recall":
        by_frame: dict = {}
        for rec in preds:
            by_frame.setdefault(rec["frame"], []).append(rec)
        metrics = {f"recall@{n}": recall_at_n(by_frame, gts, n) for n in args.at}
    elif args.mode == "purity":
        metrics = {"purity": cluster_purity(preds, gts)}
    elif args.mode == "consistency":
        metrics = {"consistency": temporal_consistency(preds, gts)}
    else:
        classes = sorted(set(gt_doc["classes"]) | {p["class"] for p in preds})
        metrics = {"detection": detection_pr(preds, gts, classes)}
    text = json.dumps(metrics, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _positive_ints(text: str) -> list[int]:
    """Parse --at: comma-separated positive integers."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        values = []
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamdet",
        description="Streaming video object detection through proposal "
                    "clustering and class-label propagation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic test video")
    p.add_argument("--spec", required=True, help="synthetic video spec (JSON)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    for name, help_text, func in (
            ("propose", "emit ranked proposals per frame", cmd_propose),
            ("cluster", "emit streaming cluster assignments", cmd_cluster),
            ("detect", "run the full detection loop", cmd_detect)):
        p = sub.add_parser(name, help=help_text)
        _add_stream_args(p)
        p.set_defaults(func=func)
        if func is cmd_detect:
            p.add_argument("--classifier", metavar="oracle|cmd:COMMAND",
                           help="the colour oracle, or a command speaking the "
                                "JSON-lines protocol of streamdet.propagation."
                                "CommandClassifier; with either, the config "
                                "key classify_always classifies every window")

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="JSON-lines predictions")
    p.add_argument("--gt", required=True, help="gt.json from synth")
    p.add_argument("--mode", required=True,
                   choices=["recall", "purity", "consistency", "detection"])
    p.add_argument("--at", type=_positive_ints, default=[10, 50, 100],
                   help="comma-separated positive N values for recall@N "
                        "(default: 10,50,100)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
