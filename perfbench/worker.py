"""One benchmark child process: set one workload up, then (unless
``--setup-only``) run repetitions of its detect call until ``--seconds`` have
passed, and write the result as JSON to ``--result``.

``run.py`` starts this with ``src`` on ``PYTHONPATH`` and passes the
``time.monotonic()`` reading taken just before the spawn, so ``setup_s``
covers interpreter start-up and imports as well as rendering, writing the
inputs and warming up the classifier.

Every repetition runs under a deadline. An exception or a non-zero CLI exit
code is recorded as that repetition's failure (type, message and the
sub-sequence reached) and the next repetition starts; nothing is raised.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

import metrics
import scenes
import streamdet.cli
import streamdet.propagation
from streamdet.imio import read_jsonl
from tracing import StreamLog, Tracer, clock, instruments

REP_TIMEOUT_S = 60.0


class RepTimeout(Exception):
    """A repetition ran past its deadline (for example, a stalled
    classifier that never answers)."""


@contextlib.contextmanager
def deadline(seconds: float):
    def fire(signum, frame):
        raise RepTimeout(f"repetition exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _where(exc: BaseException) -> str | None:
    """Innermost program frame of a traceback, as ``file:line function``."""
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        if f"{os.sep}streamdet{os.sep}" in frame.filename:
            return f"{os.path.basename(frame.filename)}:{frame.lineno} {frame.name}"
    return None


def _run_cli(scene: scenes.Scene, tracer: Tracer | None):
    """``streamdet detect`` in-process; returns (exit code, stderr)."""
    shutil.rmtree(scene.cli_out, ignore_errors=True)
    err = io.StringIO()
    span = tracer.open("cli.main") if tracer else None
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                code = streamdet.cli.main(scene.cli_argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    finally:
        if span is not None:
            tracer.close(span)
    return code, err.getvalue().strip()


def run_rep(scene: scenes.Scene, tracer: Tracer | None = None,
            run_id: str = "", timeout: float = REP_TIMEOUT_S) -> dict:
    """One detect call on the scene, measured and checked; never raises
    for a failure of the program."""
    log = StreamLog()
    error, detections, stats = None, [], None
    if tracer is not None:
        tracer.run_id = run_id
    with instruments(log, tracer, scene.classifier_type):
        start = clock()
        try:
            with deadline(timeout):
                if scene.cli_argv is not None:
                    code, message = _run_cli(scene, tracer)
                else:
                    dets, st, _ = streamdet.propagation.detect_stream(
                        scene.frames, scene.flows, scene.config,
                        scene.classifier, frame_paths=scene.frame_paths)
                    detections = [d.to_record() for d in dets]
                    stats = st.to_record()
        except Exception as exc:  # failure as data: the benchmark keeps going
            error = {"type": type(exc).__name__, "message": str(exc),
                     "where": _where(exc)}
        wall = clock() - start
    if error is not None and error["type"] == "RepTimeout":
        scene.recover()
    if scene.cli_argv is not None and error is None:
        if code != 0:
            error = {"type": f"exit {code}", "message": message, "where": None}
        else:
            try:
                detections = read_jsonl(os.path.join(scene.cli_out,
                                                     "detections.jsonl"))
                with open(os.path.join(scene.cli_out, "stats.json"),
                          encoding="utf-8") as fh:
                    stats = json.load(fh)
            except (OSError, ValueError) as exc:
                error = {"type": type(exc).__name__,
                         "message": f"reading the CLI's output: {exc}",
                         "where": None}
    done = log.done()
    if error is not None:
        error["subseq"] = len(done)
    rep = {"run": run_id, "traced": tracer is not None, "wall_s": wall,
           "done": [t - start for t in done], "emitted": log.emitted,
           "expected": scene.n_subsequences, "error": error,
           "detections": detections, "stats": stats, "quality": None}
    rep["problems"] = metrics.check_rep(rep, scene.n_frames, scene.frame_size,
                                        scene.config.classes)
    if metrics.succeeded(rep):
        rep["quality"] = metrics.quality_of(detections, stats,
                                            scene.gt_by_frame,
                                            scene.config.classes)
    return rep


def measure(scene: scenes.Scene, seconds: float, trace: bool,
            trace_path: str | None) -> dict:
    """Repeat the detect call for ``seconds``; with tracing, untraced and
    traced repetitions alternate.

    The window closes on time: a repetition still running then is stopped
    and dropped, so the window's length does not depend on how repetitions
    happen to fit into it. The first repetition (with tracing, the first
    two) always runs to its end.
    """
    tracer = Tracer() if trace else None
    required = 2 if trace else 1
    reps = []
    start = clock()
    while True:
        offset = clock() - start
        if len(reps) >= required and offset >= seconds:
            window = offset
            break
        run_id = f"{scene.name}-seed{scene.seed}-rep{len(reps)}"
        closing = len(reps) >= required and seconds - offset < REP_TIMEOUT_S
        rep = run_rep(scene, tracer if trace and len(reps) % 2 else None, run_id,
                      timeout=seconds - offset if closing else REP_TIMEOUT_S)
        if closing and rep["error"] is not None \
                and rep["error"]["type"] == "RepTimeout":
            window = offset + rep["wall_s"]
            if tracer is not None:
                tracer.spans = [s for s in tracer.spans if s["run"] != run_id]
            break
        reps.append(rep)
    metrics.check_repeats(reps)
    plain = [r for r in reps if not r["traced"]]
    result = {
        "window_s": window,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "metrics": metrics.end_to_end(plain, window),
        "correct": not any(r["problems"] for r in reps),
        "attempted": sum(r["expected"] for r in reps),
        "failed": sum(metrics.failed_subsequences(r) for r in reps),
        "reps": [{k: r[k] for k in ("run", "traced", "wall_s", "error",
                                    "problems")}
                 | {"completed": len(r["done"])} for r in reps],
    }
    if trace:
        traced = [r for r in reps if r["traced"]]
        per_rep = [metrics.layer_metrics(
                       [s for s in tracer.spans if s["run"] == r["run"]],
                       r["detections"]) for r in traced]
        result["layers"] = {name: statistics.median(p[name] for p in per_rep)
                            for name in per_rep[0]}
        result["layers"]["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in plain))
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(scenes.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file")
    args = parser.parse_args(argv)

    scene = scenes.setup(args.workload, args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned
    try:
        if args.setup_only:
            result = {}
        else:
            result = measure(scene, args.seconds, bool(args.trace),
                             args.trace_file)
    finally:
        scene.close()
    result["setup_s"] = setup_s
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
