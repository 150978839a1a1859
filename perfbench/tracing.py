"""Benchmark-side instruments, installed around one repetition and removed
after it; nothing inside ``src/`` is changed.

- The stream probe is a pass-through wrapper around
  ``streamdet.propagation.stream_cluster``. It timestamps every pull that
  ``detect_stream`` makes on the sub-sequence generator. It is the only
  instrument of an untraced repetition.
- The tracer additionally wraps the public functions the pipeline looks up
  (``TARGETS`` plus the classifier's ``classify``) and records one span per
  call: name, start, end, parent span and run id, plus a few counts taken at
  the same boundary. Spans stay in memory until the benchmark writes them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter

# stage functions looked up in the streamdet.propagation namespace
PROPAGATION_STAGES = (
    "block_matching_flow", "motion_boundary", "inside_outside_map",
    "accumulate_prior", "temporal_edge", "spatial_edge", "orientation_of",
    "combine_edges", "combined_orientation", "edge_groups",
    "generate_proposals", "extract_features", "collect_pairs", "fit_density",
    "affinity_matrix", "spectral_cluster_selftune", "spectral_cluster_fixed",
    "cluster_descriptor", "associate_clusters", "fit_location_gaussian",
    "record_offset", "propagate_localization", "detect_stream",
)
TARGETS = ([("streamdet.propagation", name) for name in PROPAGATION_STAGES]
           + [("streamdet.proposals", "nms"),
              ("streamdet.clustering", "kl_divergence"),
              ("streamdet.imio", "read_ppm"),
              ("streamdet.imio", "write_jsonl")])


def _n_labels(args, kwargs, result):
    return {"k": len(set(result.tolist()))} if result is not None else {}


def _n_result(args, kwargs, result):
    return {"n": len(result)} if result is not None else {}


# counts recorded at a span's boundary, by span name
COUNTERS = {
    "edge_groups": _n_result,
    "generate_proposals": _n_result,
    "collect_pairs": _n_result,
    "affinity_matrix": lambda args, kwargs, result: {"n": len(args[0])},
    "spectral_cluster_selftune": _n_labels,
    "spectral_cluster_fixed": _n_labels,
    "associate_clusters": lambda args, kwargs, result: (
        {"clusters": len(args[0]), "new": len(result[1]),
         "registry": len(args[1]), "subseq": args[3]}
        if result is not None else {}),
    "classify": lambda args, kwargs, result: {"boxes": len(args[2])},
}


@dataclass
class StreamLog:
    """What the stream probe saw during one detect call."""

    pulls: list[float] = field(default_factory=list)    # every next() call
    yields: list[float] = field(default_factory=list)   # every record returned
    emitted: list[int] = field(default_factory=list)    # frames per record

    def done(self) -> list[float]:
        """Times at which each sub-sequence's detections were done: the pull
        that follows a record marks the consumer finished with it."""
        return self.pulls[1:len(self.yields) + 1]


class Tracer:
    """In-memory span recorder with a stack of open spans for parents."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id: str | None = None
        self._stack: list[dict] = []

    def open(self, name: str) -> dict:
        span = {"run": self.run_id, "id": len(self.spans), "name": name,
                "start": clock(), "end": None,
                "parent": self._stack[-1]["id"] if self._stack else None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict, error: BaseException | None = None):
        span["end"] = clock()
        if error is not None:
            span["error"] = type(error).__name__
        while self._stack and self._stack.pop() is not span:
            pass

    def wrap(self, fn, name: str):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(span, exc)
                raise
            else:
                self.close(span)
            finally:
                if count is not None:
                    span.update(count(args, kwargs, result))
            return result
        return traced


def _probe(stream_cluster, log: StreamLog, tracer: Tracer | None):
    @functools.wraps(stream_cluster)
    def probed(*args, **kwargs):
        gen = stream_cluster(*args, **kwargs)
        try:
            while True:
                log.pulls.append(clock())
                span = tracer.open("stream_cluster") if tracer else None
                try:
                    rec = next(gen)
                except StopIteration:
                    return
                except BaseException as exc:
                    if span is not None:
                        tracer.close(span, exc)
                        span = None
                    raise
                finally:
                    if span is not None:
                        tracer.close(span)
                log.yields.append(clock())
                log.emitted.append(len(rec.emit_frames))
                yield rec
        finally:
            gen.close()
    return probed


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self.applied: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value):
        self.applied.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_everywhere(self, module: str, attr: str, make):
        """Replace ``module.attr`` by ``make(original)`` in every loaded
        streamdet module that bound the same object (``from x import y``)."""
        original = getattr(sys.modules[module], attr)
        replacement = make(original)
        for name, mod in list(sys.modules.items()):
            if (name == "streamdet" or name.startswith("streamdet.")) \
                    and getattr(mod, attr, None) is original:
                self.set(mod, attr, replacement)

    def restore(self):
        while self.applied:
            owner, attr, original = self.applied.pop()
            setattr(owner, attr, original)


@contextlib.contextmanager
def instruments(log: StreamLog, tracer: Tracer | None = None,
                classifier_type: type | None = None):
    """Install the stream probe, and with a tracer the span wrappers, for
    the duration of the block; everything is restored on exit."""
    import streamdet.propagation as propagation

    patches = Patches()
    try:
        patches.set(propagation, "stream_cluster",
                    _probe(propagation.stream_cluster, log, tracer))
        if tracer is not None:
            for module, attr in TARGETS:
                patches.set_everywhere(
                    module, attr, lambda fn, attr=attr: tracer.wrap(fn, attr))
            if classifier_type is not None:
                patches.set(classifier_type, "classify",
                            tracer.wrap(classifier_type.classify, "classify"))
        yield patches
    finally:
        patches.restore()
