"""Metric definitions and the arithmetic that turns repetition records and
spans into them. Pure functions over plain dicts, so they can be checked
without running the program.

A repetition record (one detect call) holds:
``wall_s``, ``done`` (seconds from the call's start until each sub-sequence's
detections were done), ``emitted`` (frames each completed sub-sequence
emits), ``expected`` (``len(make_subsequences(n, L))``), ``error`` (None or
``{"type", "message", "subseq", "where"}``), ``problems`` (failed output
checks), ``detections``, ``stats`` and ``quality``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from collections import Counter, defaultdict

# every end-to-end metric, by name, with its unit; measured with tracing off
END_TO_END = {
    "frames_per_s": "frames/s",
    "first_result_s": "s",
    "subseq_p50_ms": "ms",
    "classified_frac": "fraction",
    "det_precision": "fraction",
    "det_recall": "fraction",
    "id_consistency": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "failed_frac": "fraction",
}
# the end-to-end metrics that are never 0 and so can carry a regression
# bound; the others read 0 while every run fails and are reported unbounded
BOUNDED = ("first_result_s", "subseq_p50_ms", "classified_frac",
           "peak_rss_mb", "setup_s")

# per-layer self times: metric -> span names whose self time it sums
LAYER_TIMES = {
    "motion.flow_s": ("block_matching_flow",),
    "motion.prior_s": ("motion_boundary", "inside_outside_map",
                       "accumulate_prior", "temporal_edge"),
    "edges.spatial_s": ("spatial_edge", "orientation_of", "combine_edges",
                        "combined_orientation"),
    "edges.groups_s": ("edge_groups",),
    "proposals.generate_s": ("generate_proposals",),
    "proposals.nms_s": ("nms",),
    "affinity.features_s": ("extract_features",),
    "affinity.pairs_s": ("collect_pairs",),
    "affinity.density_s": ("fit_density",),
    "affinity.matrix_s": ("affinity_matrix",),
    "clustering.spectral_s": ("spectral_cluster_selftune",
                              "spectral_cluster_fixed"),
    "clustering.descriptor_s": ("cluster_descriptor",),
    "clustering.associate_s": ("associate_clusters",),
    "clustering.kl_s": ("kl_divergence",),
    "propagation.classify_s": ("classify",),
    "propagation.localize_s": ("fit_location_gaussian", "record_offset",
                               "propagate_localization"),
    "propagation.loop_self_s": ("detect_stream",),
    "imio.read_s": ("read_ppm",),
    "imio.write_s": ("write_jsonl",),
}
LAYER_COUNTS = {
    "motion.flow_calls": "count",
    "edges.groups_per_frame": "count",
    "proposals.per_frame": "count",
    "affinity.pairs_per_subseq": "count",
    "affinity.matrix_n": "count",
    "affinity.density_fallbacks": "count",
    "clustering.k_mean": "count",
    "clustering.kl_evals": "count",
    "clustering.inherit_ratio": "fraction",
    "clustering.registry_size": "count",
    "propagation.classify_calls": "count",
    "propagation.classify_boxes": "count",
    "propagation.propagated_ratio": "fraction",
}
PER_LAYER = {
    **{name: END_TO_END[name] for name in END_TO_END if name not in BOUNDED},
    **{name: "s" for name in LAYER_TIMES},
    **LAYER_COUNTS,
    "trace.overhead_s": "s",
}


def check_rep(rep: dict, n_frames: int, frame_size: tuple[int, int],
              classes) -> list[str]:
    """Output checks; any problem marks the repetition failed."""
    width, height = frame_size
    problems = []
    for d in rep["detections"]:
        if not (isinstance(d["frame"], int) and 0 <= d["frame"] < n_frames):
            problems.append(f"frame index {d['frame']} outside 0..{n_frames - 1}")
        if not (d["w"] > 0 and d["h"] > 0 and d["x"] >= 0 and d["y"] >= 0
                and d["x"] + d["w"] <= width and d["y"] + d["h"] <= height):
            problems.append(f"box {(d['x'], d['y'], d['w'], d['h'])} not inside "
                            f"the {width}x{height} frame with positive extent")
        if d["class"] not in classes:
            problems.append(f"label {d['class']!r} not among {list(classes)}")
    stats = rep["stats"]
    if stats is not None:
        if stats["classified_windows"] > stats["total_windows"]:
            problems.append(f"classified {stats['classified_windows']} > "
                            f"total {stats['total_windows']} windows")
        if stats["frames"] != n_frames:
            problems.append(f"stats.frames {stats['frames']} != {n_frames}")
    if rep["error"] is None:
        if stats is None:
            problems.append("no stats for a completed run")
        if len(rep["done"]) != rep["expected"]:
            problems.append(f"completed {len(rep['done'])} of "
                            f"{rep['expected']} sub-sequences")
    return problems


def digest(rep: dict) -> str:
    """Hash of what a repetition produced: detections, stats and failure."""
    error = rep["error"]
    failure = (error["type"], error["message"], error["subseq"]) if error else None
    doc = {"detections": rep["detections"], "stats": rep["stats"],
           "failure": failure}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def check_repeats(reps: list[dict]):
    """Output must be deterministic: a repetition whose digest differs from
    the most common one gets a problem."""
    digests = [digest(r) for r in reps]
    common = Counter(digests).most_common(1)[0][0] if digests else None
    for rep, d in zip(reps, digests):
        if d != common:
            rep["problems"].append("output differs from the other repeats of "
                                   "this seed")


def succeeded(rep: dict) -> bool:
    return rep["error"] is None and not rep["problems"]


def failed_subsequences(rep: dict) -> int:
    """Sub-sequences that failed or were never reached; a run whose output
    failed a check counts all of them."""
    if rep["problems"]:
        return rep["expected"]
    return rep["expected"] - len(rep["done"])


def end_to_end(reps: list[dict], window_s: float) -> dict:
    """End-to-end metrics over the untraced repetitions of one run, except
    ``setup_s`` and ``peak_rss_mb``, which the process measures.

    A failed repetition gets each metric's worst value: no frames and no
    true positives, ``classified_frac`` 1.0, and its time to first result
    and sub-sequence gaps censored at ``window_s``, the wall time the run
    measured for (no result arrived within it).
    """
    first, gaps, quality = [], [], defaultdict(list)
    frames = 0
    for rep in reps:
        ok = succeeded(rep)
        if ok and rep["done"]:
            first.append(rep["done"][0])
            gaps.extend(b - a for a, b in zip([0.0] + rep["done"], rep["done"]))
            frames += sum(rep["emitted"][:len(rep["done"])])
        else:
            first.append(window_s)
            gaps.extend([window_s] * rep["expected"])
        q = rep["quality"] if ok else None
        quality["classified_frac"].append(q["classified_frac"] if q else 1.0)
        for name in ("det_precision", "det_recall", "id_consistency"):
            quality[name].append(q[name] if q else 0.0)
    wall = sum(r["wall_s"] for r in reps)
    out = {
        "frames_per_s": frames / wall if wall > 0 else 0.0,
        "first_result_s": statistics.median(first),
        "subseq_p50_ms": 1000.0 * statistics.median(gaps),
        "failed_frac": (sum(failed_subsequences(r) for r in reps)
                        / sum(r["expected"] for r in reps)),
    }
    out.update({name: statistics.median(v) for name, v in quality.items()})
    return out


def quality_of(detections: list[dict], stats: dict, gt_by_frame, classes) -> dict:
    """Detection quality of one completed run, scored by ``streamdet.evaluate``
    at IoU 0.5 with TP pooled over classes; frames never emitted are misses."""
    from streamdet.evaluate import detection_pr, temporal_consistency

    per_class = detection_pr(detections, gt_by_frame, classes)
    tp = sum(c["tp"] for c in per_class.values())
    n_pred = sum(c["predictions"] for c in per_class.values())
    n_gt = sum(c["ground_truth"] for c in per_class.values())
    total = stats["total_windows"]
    return {
        "classified_frac": stats["classified_windows"] / total if total else 1.0,
        "det_precision": tp / n_pred if n_pred else 0.0,
        "det_recall": tp / n_gt if n_gt else 0.0,
        "id_consistency": temporal_consistency(
            detections, gt_by_frame)["mean_stable_fraction"],
    }


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in spans}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[dict], detections: list[dict]) -> dict:
    """Per-layer metrics of one traced repetition. Stages that never ran
    read 0."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    out = {metric: sum(own[s["id"]] for n in names for s in by_name[n])
           for metric, names in LAYER_TIMES.items()}
    assoc = by_name["associate_clusters"]
    later = [s for s in assoc if s.get("subseq", 0) > 0]
    clusters = sum(s["clusters"] for s in later)
    spectral = by_name["spectral_cluster_selftune"] + by_name["spectral_cluster_fixed"]
    out.update({
        "motion.flow_calls": len(by_name["block_matching_flow"]),
        "edges.groups_per_frame": _mean(s["n"] for s in by_name["edge_groups"]),
        "proposals.per_frame": _mean(s["n"] for s in by_name["generate_proposals"]),
        "affinity.pairs_per_subseq": _mean(s["n"] for s in by_name["collect_pairs"]),
        "affinity.matrix_n": _mean(s["n"] for s in by_name["affinity_matrix"]),
        "affinity.density_fallbacks": sum(s.get("error") == "DensityError"
                                          for s in by_name["fit_density"]),
        "clustering.k_mean": _mean(s["k"] for s in spectral if "k" in s),
        "clustering.kl_evals": len(by_name["kl_divergence"]),
        "clustering.inherit_ratio": (sum(s["clusters"] - s["new"] for s in later)
                                     / clusters if clusters else 0.0),
        "clustering.registry_size": max((s["registry"] for s in assoc
                                         if "registry" in s), default=0),
        "propagation.classify_calls": len(by_name["classify"]),
        "propagation.classify_boxes": sum(s["boxes"] for s in by_name["classify"]),
        "propagation.propagated_ratio": _mean(d["provenance"] == "propagated"
                                              for d in detections),
    })
    return out
