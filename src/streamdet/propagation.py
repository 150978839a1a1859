"""The streaming detection loop: cluster proposals across sub-sequences,
classify a newly appearing cluster's windows in one frame only, propagate its
class label to every later sub-sequence that inherits the cluster, and carry
its box from frame to frame by the median optical flow inside it (the
median-flow step of Kalal, Mikolajczyk & Matas, ICPR 2010)."""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import time
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .affinity import (FEATURE_DIM, DensityError, affinity_matrix,
                       collect_pairs, extract_features, fit_density)
from .clustering import (TAU_KL, ClusterRegistry, associate_clusters,
                         cluster_descriptor, make_subsequences,
                         spectral_cluster_fixed, spectral_cluster_selftune)
from .config import CLASSES, ConfigError, PipelineConfig
from .core import Box, IntegralImage, greedy_keep
from .edges import combine_edges, combined_orientation, edge_groups, \
    orientation_of, spatial_edge, thin_edges, to_gray
from .motion import (accumulate_prior, block_matching_flow, inside_outside_map,
                     motion_boundary, temporal_edge)
from .proposals import Proposal, generate_proposals


CONFIDENCE_THRESHOLD = 0.5   # least pooled class score that labels a cluster
DET_NMS_BETA = 0.75          # IoU suppressing a frame's same-class detections
CLOSE_TIMEOUT_S = 5.0        # wait for a classifier to exit after EOF, then kill it
REPLY_TIMEOUT_S = 60.0       # wait for each classifier reply, then give up


class ClassifierProtocolError(RuntimeError):
    """Classifier subprocess failed or broke the one-line JSON framing."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass
class Detection:
    frame: int
    box: Box
    label: str
    confidence: float
    provenance: str          # "classified" or "propagated"
    global_id: int

    def to_record(self) -> dict:
        return {"frame": self.frame, "x": self.box.x, "y": self.box.y,
                "w": self.box.w, "h": self.box.h, "class": self.label,
                "confidence": round(self.confidence, 6),
                "provenance": self.provenance, "global_id": self.global_id}


def box_to_quadruple(box: Box) -> np.ndarray:
    cx, cy = box.center
    return np.array([cx, cy, float(box.h), float(box.w)], dtype=np.float64)


def quadruple_to_box(quad, frame_size: tuple[int, int] | None = None) -> Box:
    cx, cy, h, w = (float(v) for v in quad)
    wi = max(1, int(round(w)))
    hi = max(1, int(round(h)))
    box = Box(int(round(cx - w / 2.0)), int(round(cy - h / 2.0)), wi, hi)
    if frame_size is not None:
        box = box.clamped(frame_size[0], frame_size[1])
    return box


# Nothing in the pipeline calls fit_location_gaussian, record_offset or
# propagate_localization: they stay, under their old names, while
# perfbench/tracing.py traces them by name.

def fit_location_gaussian(boxes: list[Box]) -> np.ndarray:
    """Mean (center_x, center_y, h, w) quadruple of the boxes, shape (4,)."""
    if not boxes:
        raise ValueError("need at least one box")
    return np.stack([box_to_quadruple(b) for b in boxes]).mean(axis=0)


def record_offset(registry: ClusterRegistry, global_id: int, detected_box: Box,
                  mean: np.ndarray) -> np.ndarray:
    """Store d = detected quadruple - cluster location mean for a cluster,
    in ``RegistryEntry.offset``, which nothing else reads."""
    d = box_to_quadruple(detected_box) - mean
    registry[global_id].offset = d
    return d


def propagate_localization(mean: np.ndarray, d: np.ndarray,
                           frame_size: tuple[int, int] | None = None) -> Box:
    """Box at (quadruple mean + d), clamped into the frame with >= 1 px extent."""
    return quadruple_to_box(mean + np.asarray(d, dtype=np.float64), frame_size)


MOVING_FLOW = 0.5   # flow magnitude above which a pixel counts as moving


def carry_box(box: Box, flow: np.ndarray, frame_size: tuple[int, int]) -> Box:
    """The box one frame later: moved by the rounded median of ``flow``
    ((h, w, 2), as (dx, dy)) over its pixels whose flow is longer than
    MOVING_FLOW, or over all of its pixels when none is, and clamped into the
    (width, height) frame."""
    patch = flow[box.y:box.y2, box.x:box.x2].reshape(-1, 2)
    moving = patch[np.hypot(patch[:, 0], patch[:, 1]) > MOVING_FLOW]
    dx, dy = np.rint(np.median(moving if len(moving) else patch, axis=0))
    return Box(box.x + int(dx), box.y + int(dy), box.w, box.h).clamped(*frame_size)


# ---------------------------------------------------------------------------
# classifiers

VIVID_MARGIN = 40   # channel spread above which a pixel shows its colour


class OracleColorClassifier:
    """Rule-based stand-in classifier: scores each class by purity x coverage;
    background gets the complement of the best class. A class other than red,
    green and blue raises ConfigError.

    Purity is the fraction of the box's mean colour carried by the class's
    channel. A pixel shows a class when its largest channel exceeds its
    smallest by more than VIVID_MARGIN and the class's channel is the
    largest; coverage is the count of such pixels inside the box over their
    count inside the box grown by half its size on each side (clipped to the
    frame), 0 when there are none. So a box fitting an object outscores a
    strip inside it. Counts come from one integral table per class, built
    once per request.
    """

    def __init__(self, classes=CLASSES):
        self.classes = tuple(classes)
        self._channel = {"red": 0, "green": 1, "blue": 2}
        for name in self.classes:
            if name not in self._channel:
                raise ConfigError(f"the oracle classifier cannot score class "
                                  f"{name!r}; it scores {', '.join(self._channel)}")
        self._columns = [self._channel[name] for name in self.classes]

    def classify(self, frame, boxes, frame_path=None) -> np.ndarray:
        arr = np.asarray(frame)
        height, width = arr.shape[:2]
        x, y, w, h = np.array([b.as_tuple() for b in boxes],
                              dtype=np.int64).reshape(-1, 4).T
        grown = (np.maximum(x - w // 2, 0), np.maximum(y - h // 2, 0),
                 np.minimum(x + w + w // 2, width), np.minimum(y + h + h // 2, height))
        # channel-wise maxima: a reduction over the last axis is ~10x slower
        red, green, blue = arr[..., 0], arr[..., 1], arr[..., 2]
        top = np.maximum(np.maximum(red, green), blue)
        vivid = top - np.minimum(np.minimum(red, green), blue) > VIVID_MARGIN
        out = np.zeros((len(boxes), len(self.classes) + 1), dtype=np.float64)
        for ci, channel in enumerate(self._columns):
            counts = IntegralImage(vivid & (arr[..., channel] == top), dtype=np.int32)
            around = counts.rect_sums(*grown)
            np.divide(counts.rect_sums(x, y, x + w, y + h), around,
                      out=out[:, ci], where=around > 0)
        for bi, box in enumerate(boxes):
            mean = arr[box.y:box.y2, box.x:box.x2].reshape(-1, 3).mean(axis=0)
            out[bi, :-1] *= (mean / max(mean.sum(), 1e-9))[self._columns]
        out[:, -1] = 1.0 - out[:, :-1].max(axis=1)
        return out


class CommandClassifier:
    """External classifier over a JSON-lines pipe.

    The command runs under /bin/sh in a session (and process group) of its
    own, started on the first request and kept for the rest of the stream;
    it is never restarted, so once it has exited every request fails.
    Each request is one line on its stdin,
    {"frame_path": PATH, "boxes": [[x, y, w, h], ...]}: PATH is a PPM file of
    the frame (a temporary file when the caller passes none, as
    ``streamdet detect`` does for resized frames) and the boxes are in its
    pixel coordinates. Each reply is one line on its stdout,
    {"scores": [[...], ...]}: one row per box, in request order, holding one
    score per class in ``classes`` order (the config's ``classes``) and then
    the background score. ``detect_stream`` sends at most one request per
    frame of each sub-sequence and never sends a window twice in a stream;
    when a request fails, the stats it leaves count the windows of every
    reply received before it.

    classify raises ClassifierProtocolError, on which ``streamdet detect``
    exits 4, when writing the request or reading the reply fails, when no
    complete reply line arrives within REPLY_TIMEOUT_S of the request, when
    the process closes its stdout without replying (it exited, now or at an
    earlier request, or the command could not be started), when the reply is
    not JSON or not a JSON object,
    or when its "scores" are not numbers, not of shape
    (len(boxes), len(classes) + 1) or not all finite.
    """

    def __init__(self, command: str, classes=CLASSES):
        self.command = command
        self.classes = tuple(classes)
        self._proc = None
        self._pending = b""   # bytes read past the last reply line

    def _ensure(self):
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.command, shell=True, start_new_session=True,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self._proc

    def _read_reply(self, proc) -> str:
        """The next line of the classifier's stdout, with its newline; what
        is left at end of file, or "" there. Bytes already read are searched
        before the pipe is polled; a line not complete within REPLY_TIMEOUT_S
        raises ClassifierProtocolError."""
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        fd = proc.stdout.fileno()
        poller = select.poll()
        poller.register(fd, select.POLLIN)
        while b"\n" not in self._pending:
            left = deadline - time.monotonic()
            if left <= 0 or not poller.poll(left * 1000.0):
                raise ClassifierProtocolError(
                    f"classifier sent no reply within {REPLY_TIMEOUT_S} s")
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            self._pending += chunk
        line, newline, self._pending = self._pending.partition(b"\n")
        return (line + newline).decode("utf-8", errors="replace")

    def classify(self, frame, boxes, frame_path=None) -> np.ndarray:
        import tempfile
        from .imio import write_ppm

        cleanup = None
        if frame_path is None:
            fd, frame_path = tempfile.mkstemp(suffix=".ppm")
            os.close(fd)
            write_ppm(frame_path, frame)
            cleanup = frame_path
        try:
            proc = self._ensure()
            request = {"frame_path": str(frame_path),
                       "boxes": [list(b.as_tuple()) for b in boxes]}
            try:
                proc.stdin.write((json.dumps(request) + "\n").encode())
                proc.stdin.flush()
                line = self._read_reply(proc)
            except (BrokenPipeError, OSError) as exc:
                raise ClassifierProtocolError(f"classifier pipe failed: {exc}")
            if not line:
                raise ClassifierProtocolError("classifier closed its output")
            try:
                reply = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ClassifierProtocolError(f"classifier sent bad JSON: {exc}")
            if not isinstance(reply, dict):
                raise ClassifierProtocolError(
                    f"classifier reply is not a JSON object: {line.strip()[:80]}")
            try:
                scores = np.asarray(reply.get("scores"), dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ClassifierProtocolError(f"classifier scores are not numbers: {exc}")
            if scores.shape != (len(boxes), len(self.classes) + 1):
                raise ClassifierProtocolError(
                    f"classifier returned shape {scores.shape}, expected "
                    f"{(len(boxes), len(self.classes) + 1)}")
            if not np.isfinite(scores).all():
                raise ClassifierProtocolError("classifier returned non-finite scores")
            return scores
        finally:
            if cleanup is not None:
                try:
                    os.remove(cleanup)
                except OSError:
                    pass

    def close(self):
        """Close stdin and wait for the process to end, killing its process
        group if it outlives CLOSE_TIMEOUT_S; close stdout in every case.

        The group holds what the shell started: /bin/sh need not ``exec`` a
        lone command, and killing only the shell would leave it running.
        """
        if self._proc is None:
            return
        try:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self._proc.pid, signal.SIGKILL)
                self._proc.wait()
        finally:
            self._proc.stdout.close()


def make_classifier(spec: str, classes=CLASSES):
    """Resolve a classifier spec, 'oracle' or 'cmd:COMMAND'. The pair's second
    element is always False: ``classify_always`` is the per-frame switch, and
    the pair stays while ``perfbench/scenes.py`` and ``perfbench/selftest.py``
    unpack two values."""
    if spec == "oracle":
        return OracleColorClassifier(classes), False
    if spec.startswith("cmd:"):
        return CommandClassifier(spec[4:], classes), False
    raise ValueError(f"unknown classifier spec {spec!r}")


# ---------------------------------------------------------------------------
# streaming pipeline

@dataclass
class StreamStats:
    """What one stream did, in counts (``stats.json``)."""

    total_windows: int = 0
    classified_windows: int = 0
    clusters_created: int = 0
    subsequences: int = 0
    frames: int = 0
    classifier_calls: int = 0

    def to_record(self) -> dict:
        frac = (self.classified_windows / self.total_windows
                if self.total_windows else 0.0)
        return {"total_windows": self.total_windows,
                "classified_windows": self.classified_windows,
                "fraction": round(frac, 6),
                "clusters_created": self.clusters_created,
                "subsequences": self.subsequences,
                "frames": self.frames,
                "classifier_calls": self.classifier_calls}


def resolve_flow_source(frames, flow_source):
    """Normalize a flow source into a callable index -> (h, w, 2) array."""
    if flow_source is None:
        # sub-sequences overlap by one frame, so no two of them share a flow
        # (frame_ids[:-1]) and each flow is computed once without a cache.
        # The flows are asked for in order, so the luma of frame i + 1, kept
        # from the flow into it, serves the flow out of it
        kept = [None, None]    # the last flow's second frame and its luma

        def compute(i: int) -> np.ndarray:
            g1 = kept[1] if kept[0] == i else to_gray(frames[i])
            kept[:] = i + 1, to_gray(frames[i + 1])
            return block_matching_flow(g1, kept[1])
        return compute
    if callable(flow_source):
        return flow_source
    flows = list(flow_source)

    def lookup(i: int) -> np.ndarray:
        return flows[i]
    return lookup


@dataclass
class SubsequenceRecord:
    """Everything one sub-sequence contributes to the stream."""

    frame_ids: list[int]
    proposals: list[Proposal]
    window_ids: list[tuple[int, int]]    # (frame, slot) per proposal
    labels: np.ndarray                   # local cluster label per proposal
    cluster_members: dict[int, list[int]]
    global_ids: dict[int, int]           # local label -> global id
    new_ids: set[int]
    emit_frames: list[int]
    flows: list[np.ndarray]              # flow from each of frame_ids[:-1] to the next


def stream_cluster(frames, flow_source, config: PipelineConfig,
                   registry: ClusterRegistry | None = None, edge_maps=None):
    """Generator over sub-sequences: proposals, affinities, spectral labels
    and globally associated cluster ids.

    ``frames`` are (h, w, 3) uint8 RGB arrays of one size, the scale every
    stage works on; any other frame, or one whose size differs from frame
    0's, raises a ValueError naming it before any stage runs, and fewer than
    2 frames raise one too.

    Each emitted frame's combined edge map is thinned across the edge
    (``thin_edges``) once; its groups and proposals both come from the
    thinned map. Proposals for the one-frame overlap are computed once and
    re-clustered in the following sub-sequence; detections and cluster
    output for the shared frame are emitted only by the earlier one. It
    counts nothing: a consumer reads the counts off the records (see
    ``detect_stream``).
    """
    for i, frame in enumerate(map(np.asarray, frames)):
        if frame.dtype != np.uint8 or frame.ndim != 3 or frame.shape[2] != 3:
            raise ValueError(f"frame {i} must be an (h, w, 3) uint8 RGB array, "
                             f"got {frame.dtype} of shape {frame.shape}")
        if i == 0:
            h0, w0 = frame.shape[:2]
        if frame.shape[:2] != (h0, w0):
            raise ValueError(f"frame {i} is {frame.shape[1]}x{frame.shape[0]}, "
                             f"but frame 0 is {w0}x{h0}")
    n_frames = len(frames)
    registry = registry if registry is not None else ClusterRegistry()
    get_flow = resolve_flow_source(frames, flow_source)
    # proposals and feature rows of the frame the next sub-sequence shares
    shared_props: list[Proposal] = []
    shared_feats = np.empty((0, FEATURE_DIM))

    ranges = make_subsequences(n_frames, config.subseq_len)
    for t, frame_ids in enumerate(ranges):
        flows = [get_flow(i) for i in frame_ids[:-1]]
        masks = [inside_outside_map(motion_boundary(fl)) for fl in flows]
        prior = accumulate_prior(masks)
        et = temporal_edge(prior)
        orient_t = orientation_of(prior)

        emit_frames = frame_ids if t == 0 else frame_ids[1:]
        proposals, rows = list(shared_props), [shared_feats]
        for i in emit_frames:
            es = edge_maps(i) if edge_maps is not None else None
            if es is not None:
                es = np.asarray(es, dtype=np.float32)
                orient_s = orientation_of(es)
            else:
                es, orient_s = spatial_edge(frames[i])
            combined = combine_edges(es, et, config.lam)
            orient = combined_orientation(es, et, orient_s, orient_t, config.lam)
            thinned = thin_edges(combined, orient)
            groups = edge_groups(thinned, orient)
            props = generate_proposals(thinned, groups, config, frame_index=i)
            feats = extract_features(frames[i], [p.box for p in props])
            proposals += props
            rows.append(feats)
        shared_props, shared_feats = props, feats
        features = np.concatenate(rows)
        window_ids = [(i, s) for i, run in groupby(p.frame_index for p in proposals)
                      for s, _ in enumerate(run)]

        # fewer than 2 windows have no pairs: W is all ones, every label 0
        pairs = collect_pairs(proposals)
        try:
            joint = fit_density(pairs, features)
            W = affinity_matrix(features, joint)
        except DensityError:
            W = np.ones((len(proposals), len(proposals)), dtype=np.float64)
        if config.self_tune:
            labels = spectral_cluster_selftune(W, max_clusters=config.k,
                                               seed=config.seed + t)
        else:
            labels = spectral_cluster_fixed(W, config.k, seed=config.seed + t)

        cluster_members: dict[int, list[int]] = {}
        for idx, lab in enumerate(labels.tolist()):
            cluster_members.setdefault(lab, []).append(idx)
        local_labels = sorted(cluster_members)
        descriptors = [cluster_descriptor(features[cluster_members[lab]])
                       for lab in local_labels]
        gids, new_ids = associate_clusters(descriptors, registry, TAU_KL, t)
        global_ids = {lab: gid for lab, gid in zip(local_labels, gids)}
        yield SubsequenceRecord(frame_ids, proposals, window_ids,
                                labels, cluster_members, global_ids, new_ids,
                                emit_frames, flows)


def _detection_nms(dets: list[Detection], beta: float) -> list[Detection]:
    """Per-frame, per-class greedy suppression keeping higher confidence."""
    kept: list[Detection] = []
    order = sorted(dets, key=lambda d: (d.frame, d.label, -d.confidence,
                                        d.box.as_tuple()))
    for _, group in groupby(order, key=lambda d: (d.frame, d.label)):
        group = list(group)
        kept += [group[k] for k in greedy_keep([d.box.as_tuple() for d in group], beta)]
    kept.sort(key=lambda d: (d.frame, -d.confidence, d.box.as_tuple()))
    return kept


def detect_stream(frames, flow_source, config: PipelineConfig, classifier,
                  frame_paths=None, edge_maps=None):
    """Run the full streaming loop over 8-bit RGB frames, (h, w, 3) uint8
    arrays (see ``stream_cluster``), and return (detections, stats, registry).

    A cluster whose global id is new in a sub-sequence is classified on its
    windows in its earliest frame of the sub-sequence only (which may be the
    frame shared with the sub-sequence before); it is labelled when its best
    pooled class score there reaches CONFIDENCE_THRESHOLD, and its box is the
    top-scoring window for that class there. An associated cluster inherits
    label, confidence and box. In every later frame the box is carried one
    frame at a time by ``carry_box`` over the sub-sequence's own flows, up to
    the sub-sequence's last frame, where the next sub-sequence picks it up.
    With ``config.classify_always`` (the per-frame reference) every window of
    every cluster is scored, the label is pooled over all of them, and each
    frame the cluster has windows in takes its top-scoring window. A labelled
    cluster is detected in each emitted frame it has windows in; each
    sub-sequence's detections are suppressed per frame and class at
    DET_NMS_BETA and come out in (frame, -confidence, box) order. The returned
    registry holds the last sub-sequence's clusters.

    Each sub-sequence makes at most one classifier request per frame, holding
    the windows it scores that have no score yet, and a window keeps its
    score for the next sub-sequence when it lies in the frame the two share,
    so each window is scored once per stream.

    The stats count each record on arrival, before any classifier call (one
    sub-sequence, its emitted frames' proposals as windows, its new ids as
    created clusters), and each reply's rows as classified windows as it
    arrives, so a ClassifierProtocolError's partial stats include the
    sub-sequence that failed and the windows of every reply received.
    """
    registry = ClusterRegistry()
    stats = StreamStats(frames=len(frames))
    detections: list[Detection] = []
    # classifier score row per (frame, slot) window; a record keeps only
    # those of the frame it shares with the record before
    scores: dict[tuple[int, int], np.ndarray] = {}

    try:
        for rec in stream_cluster(frames, flow_source, config, registry, edge_maps):
            # the frames' one size, read once stream_cluster has checked them
            height, width = np.asarray(frames[rec.frame_ids[0]]).shape[:2]
            scores = {w: row for w, row in scores.items() if w[0] == rec.frame_ids[0]}
            stats.subsequences += 1
            stats.total_windows += sum(p.frame_index in rec.emit_frames
                                       for p in rec.proposals)
            stats.clusters_created += len(rec.new_ids)
            # each cluster's members by frame, earliest frame first (proposals
            # are in (frame, slot) order); of a classified cluster, those
            # whose scores label it
            by_frame = {lab: {fi: list(run) for fi, run in groupby(
                            members, key=lambda m: rec.window_ids[m][0])}
                        for lab, members in rec.cluster_members.items()}
            scored = {lab: runs if config.classify_always else dict(list(runs.items())[:1])
                      for lab, runs in by_frame.items()
                      if config.classify_always or rec.global_ids[lab] in rec.new_ids}
            unscored = sorted(m for runs in scored.values() for run in runs.values()
                              for m in run if rec.window_ids[m] not in scores)
            for fi, run in groupby(unscored, key=lambda m: rec.window_ids[m][0]):
                run = list(run)
                path = frame_paths[fi] if frame_paths is not None else None
                rows = classifier.classify(
                    frames[fi], [rec.proposals[m].box for m in run], frame_path=path)
                stats.classifier_calls += 1
                stats.classified_windows += len(run)
                scores.update(zip((rec.window_ids[m] for m in run), rows))
            sub_dets: list[Detection] = []
            for lab in sorted(rec.cluster_members):
                gid = rec.global_ids[lab]
                entry = registry[gid]
                own = scored.get(lab, {})
                if own:
                    pool = [m for run in own.values() for m in run]
                    pooled = np.array([scores[rec.window_ids[m]] for m in pool]).max(axis=0)
                    best_c = int(np.argmax(pooled[:-1]))
                    entry.confidence = float(pooled[best_c])
                    entry.label = (classifier.classes[best_c]
                                   if entry.confidence >= CONFIDENCE_THRESHOLD else None)
                if entry.label is None:
                    continue
                # a classified cluster takes its box from its own scores; an
                # inherited box was carried to this record's first frame
                box = None if own else entry.box
                for j, fi in enumerate(rec.frame_ids):
                    if fi in own:
                        top = max(own[fi], key=lambda m: scores[rec.window_ids[m]][best_c])
                        box, provenance = rec.proposals[top].box, "classified"
                    elif box is None or j == 0:
                        continue
                    else:
                        box = carry_box(box, rec.flows[j - 1], (width, height))
                        provenance = "propagated"
                    if fi in rec.emit_frames and fi in by_frame[lab]:
                        sub_dets.append(Detection(fi, box, entry.label,
                                                  entry.confidence, provenance, gid))
                entry.box = box
            detections.extend(_detection_nms(sub_dets, DET_NMS_BETA))
    except ClassifierProtocolError as exc:
        exc.partial = (detections, stats)
        raise
    return detections, stats, registry
