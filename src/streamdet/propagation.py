"""The streaming detection loop: cluster proposals across sub-sequences,
classify only windows of newly appearing clusters, propagate class labels and
localize propagated objects at the mean (center_x, center_y, h, w) of those of
a cluster's windows in a frame that score at least LOCATION_SCORE_FRACTION of
the best of them, plus a stored offset."""

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
from .clustering import (ClusterRegistry, associate_clusters,
                         cluster_descriptor, make_subsequences,
                         spectral_cluster_fixed, spectral_cluster_selftune)
from .config import ConfigError, PipelineConfig
from .core import Box, greedy_keep
from .edges import combine_edges, combined_orientation, edge_groups, \
    orientation_of, spatial_edge
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


def fit_location_gaussian(boxes: list[Box]) -> np.ndarray:
    """Mean (center_x, center_y, h, w) quadruple of the boxes, shape (4,).
    It keeps its old name because ``perfbench/tracing.py`` traces it."""
    if not boxes:
        raise ValueError("need at least one box")
    return np.stack([box_to_quadruple(b) for b in boxes]).mean(axis=0)


# windows of a cluster that localize it in a frame: those scoring at least
# this fraction of the frame's best window
LOCATION_SCORE_FRACTION = 0.75


def frame_location(proposals: list[Proposal]) -> np.ndarray:
    """Location of one frame's windows of a cluster: the mean quadruple of
    those scoring at least LOCATION_SCORE_FRACTION of the best of them.

    A cluster also holds background windows that stay put while the object
    moves; a mean over all of them lags the object, and so does every box
    propagated from it with a fixed offset.
    """
    top = max(p.score for p in proposals)
    return fit_location_gaussian([p.box for p in proposals
                                  if p.score >= LOCATION_SCORE_FRACTION * top])


def record_offset(registry: ClusterRegistry, global_id: int, detected_box: Box,
                  mean: np.ndarray) -> np.ndarray:
    """Store d = detected quadruple - cluster location mean for a cluster."""
    d = box_to_quadruple(detected_box) - mean
    registry[global_id].offset = d
    return d


def propagate_localization(mean: np.ndarray, d: np.ndarray,
                           frame_size: tuple[int, int] | None = None) -> Box:
    """Box at (cluster mean + d), clamped into the frame with >= 1 px extent."""
    return quadruple_to_box(mean + np.asarray(d, dtype=np.float64), frame_size)


# ---------------------------------------------------------------------------
# classifiers

class OracleColorClassifier:
    """Rule-based stand-in classifier: scores each class by the fraction of
    the box's mean color carried by the matching channel; background gets the
    complement of the best class. A class other than red, green and blue
    raises ConfigError."""

    def __init__(self, classes=("red", "green", "blue")):
        self.classes = tuple(classes)
        self._channel = {"red": 0, "green": 1, "blue": 2}
        for name in self.classes:
            if name not in self._channel:
                raise ConfigError(f"the oracle classifier cannot score class "
                                  f"{name!r}; it scores {', '.join(self._channel)}")

    def classify(self, frame, boxes, frame_path=None) -> np.ndarray:
        arr = np.asarray(frame, dtype=np.float64)
        out = np.zeros((len(boxes), len(self.classes) + 1), dtype=np.float64)
        for bi, box in enumerate(boxes):
            patch = arr[box.y:box.y2, box.x:box.x2]
            mean = patch.reshape(-1, 3).mean(axis=0)
            total = max(mean.sum(), 1e-9)
            frac = mean / total
            for ci, name in enumerate(self.classes):
                out[bi, ci] = frac[self._channel[name]]
            out[bi, -1] = 1.0 - out[bi, :-1].max()
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
    the background score.

    classify raises ClassifierProtocolError, on which ``streamdet detect``
    exits 4, when writing the request or reading the reply fails, when no
    complete reply line arrives within REPLY_TIMEOUT_S of the request, when
    the process closes its stdout without replying (it exited, now or at an
    earlier request, or the command could not be started), when the reply is
    not JSON or not a JSON object,
    or when its "scores" are not numbers, not of shape
    (len(boxes), len(classes) + 1) or not all finite.
    """

    def __init__(self, command: str, classes=("red", "green", "blue")):
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


def make_classifier(spec: str, classes=("red", "green", "blue")):
    """Resolve a classifier spec: 'oracle', 'cmd:COMMAND', or 'always' (oracle
    with label propagation disabled; the caller reads the second element)."""
    if spec == "oracle":
        return OracleColorClassifier(classes), False
    if spec == "always":
        return OracleColorClassifier(classes), True
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
        # (frame_ids[:-1]) and each flow is computed once without a cache
        def compute(i: int) -> np.ndarray:
            return block_matching_flow(frames[i], frames[i + 1])
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


def stream_cluster(frames, flow_source, config: PipelineConfig,
                   registry: ClusterRegistry | None = None, edge_maps=None):
    """Generator over sub-sequences: proposals, affinities, spectral labels
    and globally associated cluster ids.

    Proposals for the one-frame overlap are computed once and re-clustered in
    the following sub-sequence; detections and cluster output for the shared
    frame are emitted only by the earlier one. It counts nothing: a consumer
    reads the counts off the records (see ``detect_stream``).
    """
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
            groups = edge_groups(combined, orient)
            props = generate_proposals(combined, groups, config, frame_index=i)
            feats = extract_features(frames[i], [p.box for p in props])
            proposals += props
            rows.append(feats)
        shared_props, shared_feats = props, feats
        features = np.concatenate(rows)
        window_ids = [(i, s) for i, run in groupby(p.frame_index for p in proposals)
                      for s, _ in enumerate(run)]

        n = len(proposals)
        if n <= 1:
            labels = np.zeros(n, dtype=np.int64)
        else:
            pairs = collect_pairs(proposals)
            try:
                joint = fit_density(pairs, features)
                W = affinity_matrix(features, joint, config.rho)
            except DensityError:
                W = np.ones((n, n), dtype=np.float64)
            if config.self_tune:
                labels = spectral_cluster_selftune(W, max_clusters=config.k,
                                                   seed=config.seed + t)
            else:
                labels = spectral_cluster_fixed(W, min(config.k, n),
                                                seed=config.seed + t)

        cluster_members: dict[int, list[int]] = {}
        for idx, lab in enumerate(labels.tolist()):
            cluster_members.setdefault(lab, []).append(idx)
        local_labels = sorted(cluster_members)
        descriptors = [cluster_descriptor(features[cluster_members[lab]])
                       for lab in local_labels]
        gids, new_ids = associate_clusters(descriptors, registry,
                                           config.tau_kl, t)
        global_ids = {lab: gid for lab, gid in zip(local_labels, gids)}
        yield SubsequenceRecord(frame_ids, proposals, window_ids,
                                labels, cluster_members, global_ids, new_ids,
                                emit_frames)


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
    """Run the full streaming loop and return (detections, stats, registry).

    The classifier runs only on proposals of clusters whose global id is new
    in the current sub-sequence (or on every cluster in classify-always
    mode); associated clusters inherit their label and are localized in each
    frame they have windows in at that frame's location mean (see
    ``frame_location``) plus the stored offset d. A cluster is labelled when
    its best pooled class score reaches CONFIDENCE_THRESHOLD, and each
    sub-sequence's detections are suppressed per frame and class at
    DET_NMS_BETA; the detections come out in (frame, -confidence, box) order.
    The returned registry holds the last sub-sequence's clusters.

    The stats count each record on arrival, before any classifier call (one
    sub-sequence, its emitted frames' proposals as windows, its new ids as
    created clusters), so a ClassifierProtocolError's partial stats include
    the sub-sequence that failed. A window of the frame two sub-sequences
    share counts as classified once.
    """
    registry = ClusterRegistry()
    stats = StreamStats(frames=len(frames))
    detections: list[Detection] = []
    height, width = np.asarray(frames[0]).shape[:2]
    # classified (frame, slot) windows of the one frame a record shares
    done_windows: set[tuple[int, int]] = set()

    try:
        for rec in stream_cluster(frames, flow_source, config, registry, edge_maps):
            done_windows = {w for w in done_windows if w[0] == rec.frame_ids[0]}
            stats.subsequences += 1
            stats.total_windows += sum(p.frame_index in rec.emit_frames
                                       for p in rec.proposals)
            stats.clusters_created += len(rec.new_ids)
            sub_dets: list[Detection] = []
            for lab in sorted(rec.cluster_members):
                members = rec.cluster_members[lab]
                gid = rec.global_ids[lab]
                entry = registry[gid]
                # proposals are in frame order, so each frame's members are one run
                frame_props = {fi: list(run) for fi, run in groupby(
                    (rec.proposals[m] for m in members), key=lambda p: p.frame_index)}
                classified = gid in rec.new_ids or config.classify_always

                if classified:
                    frame_scores = {}
                    for fi, props in frame_props.items():
                        path = frame_paths[fi] if frame_paths is not None else None
                        frame_scores[fi] = classifier.classify(
                            frames[fi], [p.box for p in props], frame_path=path)
                        stats.classifier_calls += 1
                    windows = {rec.window_ids[m] for m in members} - done_windows
                    stats.classified_windows += len(windows)
                    done_windows |= windows
                    member_scores = np.vstack(list(frame_scores.values()))
                    pooled = member_scores.max(axis=0)
                    best_c = int(np.argmax(pooled[:-1]))
                    entry.confidence = float(pooled[best_c])
                    entry.label = None
                    if entry.confidence >= CONFIDENCE_THRESHOLD:
                        entry.label = classifier.classes[best_c]
                        top = int(np.argmax(member_scores[:, best_c]))
                        best = rec.proposals[members[top]]
                        record_offset(registry, gid, best.box,
                                      frame_location(frame_props[best.frame_index]))

                if entry.label is None:
                    continue
                for fi in rec.emit_frames:
                    if fi not in frame_props:
                        continue
                    if classified:
                        top = int(np.argmax(frame_scores[fi][:, best_c]))
                        box = frame_props[fi][top].box
                    else:
                        box = propagate_localization(frame_location(frame_props[fi]),
                                                     entry.offset, (width, height))
                    sub_dets.append(Detection(
                        fi, box, entry.label, entry.confidence,
                        "classified" if classified else "propagated", gid))
            detections.extend(_detection_nms(sub_dets, DET_NMS_BETA))
    except ClassifierProtocolError as exc:
        exc.partial = (detections, stats)
        raise
    return detections, stats, registry
