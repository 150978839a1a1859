"""Command-line front end for the streaming detection pipeline."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ConfigError, PipelineConfig
from .core import Box
from .evaluate import (cluster_purity, detection_pr, gt_index, recall_at_n,
                       temporal_consistency)
from .imio import (list_frames, load_edge_map, read_jsonl, read_ppm,
                   resize_nearest, write_jsonl, write_pgm)
from .motion import load_flow
from .propagation import (ClassifierProtocolError, detect_stream, make_classifier,
                          stream_cluster)
from .segmentation import foreground_prior, prior_mask
from .synth import render, spec_from_dict, write_video

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CLASSIFIER = 4


def _add_stream_args(parser: argparse.ArgumentParser):
    """Inputs, output and config flags of propose, cluster and detect."""
    parser.add_argument("frames_dir")
    parser.add_argument("--flow-dir", help="directory of .flo files (frame t -> t+1)")
    parser.add_argument("--out", required=True)
    parser.add_argument("--config", metavar="PATH",
                        help="JSON config file; its keys, types and ranges are "
                             "listed in the docstring of "
                             "streamdet.config.PipelineConfig")
    parser.add_argument("--lambda", dest="lam", type=float, metavar="F",
                        help="temporal edge weight in [0, 1]")
    parser.add_argument("--subseq-len", type=int, metavar="N")
    parser.add_argument("--k", metavar="N|auto",
                        help="cluster count, or 'auto' for self-tuning")
    parser.add_argument("--rho", type=float, metavar="F")
    parser.add_argument("--tau-kl", type=float, metavar="F")
    parser.add_argument("--max-proposals", type=int, metavar="N")
    parser.add_argument("--seed", type=int, metavar="N")
    parser.add_argument("--resize", type=int, metavar="N",
                        help="square resize target; 0, or no flag, keeps the "
                             "native size. --flow-dir files and edges_dir maps "
                             "must already be at the requested size")


def _build_config(args) -> PipelineConfig:
    config = (PipelineConfig.from_file(args.config) if args.config
              else PipelineConfig())
    overrides = {}
    for name in ("lam", "subseq_len", "rho", "tau_kl", "max_proposals",
                 "classifier", "seed"):
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
    resize = getattr(args, "resize", None)
    if resize is not None:
        overrides["resize"] = None if resize == 0 else resize
    return config.replace(**overrides)


def _frame_paths(frames_dir) -> list[str]:
    paths = list_frames(frames_dir)
    if not paths:
        raise FileNotFoundError(f"no .ppm frames found in {frames_dir}")
    return paths


def _load_frames(frames_dir, config: PipelineConfig):
    paths = _frame_paths(frames_dir)
    frames = [read_ppm(p) for p in paths]
    if config.resize is not None:
        target = (config.resize, config.resize)
        frames = [resize_nearest(f, target) for f in frames]
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
                        lambda path: load_flow(path, frame_shape=shape))
    edge_maps = file_source(config.edges_dir, ".pgm", "edge maps", len(frames),
                            load_edge_map)
    return config, frames, paths, flows, edge_maps


def cmd_synth(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = spec_from_dict(json.load(fh))
    video = render(spec)
    os.makedirs(args.out, exist_ok=True)
    write_video(video, args.out)
    print(f"wrote {spec.n_frames} frames, {len(video.flows)} flow files and "
          f"gt.json under {args.out}")
    return EXIT_OK


def cmd_propose(args) -> int:
    config, frames, _, flows, edge_maps = _inputs(args)
    records = []
    for rec in stream_cluster(frames, flows, config, edge_maps=edge_maps):
        records += [{"frame": p.frame_index, "x": p.box.x, "y": p.box.y,
                     "w": p.box.w, "h": p.box.h, "score": round(p.score, 6)}
                    for p in rec.proposals if p.frame_index in rec.emit_frames]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "proposals.jsonl")
    write_jsonl(out_path, records)
    print(f"wrote {len(records)} proposals to {out_path}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    config, frames, _, flows, edge_maps = _inputs(args)
    records = []
    for rec in stream_cluster(frames, flows, config, edge_maps=edge_maps):
        records += [{"frame": p.frame_index, "x": p.box.x, "y": p.box.y,
                     "w": p.box.w, "h": p.box.h, "local_cluster": lab,
                     "global_id": rec.global_ids[lab]}
                    for p, lab in zip(rec.proposals, rec.labels.tolist())
                    if p.frame_index in rec.emit_frames]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "clusters.jsonl")
    write_jsonl(out_path, records)
    print(f"wrote {len(records)} cluster assignments to {out_path}")
    return EXIT_OK


def cmd_detect(args) -> int:
    config, frames, paths, flows, edge_maps = _inputs(args)
    classifier, always = make_classifier(config.classifier, config.classes)
    if always:
        config = config.replace(classify_always=True)
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


def cmd_segment_prior(args) -> int:
    if not 0.0 < args.threshold < 1.0:
        raise ConfigError(f"--threshold must lie in (0, 1), got {args.threshold}")
    config = _build_config(args)
    # the priors take the frame size; only the native size needs a frame read
    paths = _frame_paths(args.frames_dir)
    if config.resize is not None:
        height = width = config.resize
    else:
        height, width = read_ppm(paths[0]).shape[:2]
    records = read_jsonl(args.clusters)
    by_key: dict = {}
    for rec in records:
        by_key.setdefault((rec["frame"], rec["global_id"]), []).append(
            Box(rec["x"], rec["y"], rec["w"], rec["h"]))
    os.makedirs(args.out, exist_ok=True)
    index = []
    for (frame, gid), boxes in sorted(by_key.items()):
        prior = foreground_prior(boxes, (width, height))
        mask = prior_mask(prior, args.threshold)
        prior_name = f"prior_f{frame:05d}_c{gid}.pgm"
        mask_name = f"mask_f{frame:05d}_c{gid}.pgm"
        write_pgm(os.path.join(args.out, prior_name),
                  np.round(prior * 255).astype(np.uint8))
        write_pgm(os.path.join(args.out, mask_name), mask)
        index.append({"frame": frame, "global_id": gid, "boxes": len(boxes),
                      "prior": prior_name, "mask": mask_name})
    write_jsonl(os.path.join(args.out, "priors.jsonl"), index)
    print(f"wrote {len(index)} prior/mask pairs to {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    with open(args.gt, "r", encoding="utf-8") as fh:
        gt_doc = json.load(fh)
    gts = gt_index(gt_doc)
    preds = read_jsonl(args.pred)
    if args.mode == "recall":
        by_frame: dict = {}
        for rec in preds:
            by_frame.setdefault(rec["frame"], []).append(rec)
        ns = [int(v) for v in args.at.split(",")] if args.at else [10, 50, 100]
        metrics = {f"recall@{n}": recall_at_n(by_frame, gts, n) for n in ns}
    elif args.mode == "purity":
        metrics = {"purity": cluster_purity(preds, gts)}
    elif args.mode == "consistency":
        metrics = {"consistency": temporal_consistency(preds, gts)}
    else:
        metrics = {"detection": detection_pr(preds, gts, gt_doc["classes"])}
    text = json.dumps(metrics, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


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
            p.add_argument("--classifier", metavar="oracle|cmd:PATH|always")

    p = sub.add_parser("segment-prior",
                       help="foreground priors and masks from clusters")
    p.add_argument("frames_dir")
    p.add_argument("--clusters", required=True, help="clusters.jsonl path")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="foreground threshold of the prior, in (0, 1)")
    p.add_argument("--out", required=True)
    p.add_argument("--config", metavar="PATH",
                   help="JSON config file; only its resize is read")
    p.add_argument("--resize", type=int, metavar="N",
                   help="side of the square priors and masks; 0, or no flag, "
                        "takes the first frame's size")
    p.set_defaults(func=cmd_segment_prior)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True, help="JSON-lines predictions")
    p.add_argument("--gt", required=True, help="gt.json from synth")
    p.add_argument("--mode", required=True,
                   choices=["recall", "purity", "consistency", "detection"])
    p.add_argument("--at", help="comma-separated N values for recall@N")
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
