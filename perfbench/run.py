"""Benchmark of the streamdet pipeline on synthetic scenes.

Run from the repository root:

    python3 perfbench/run.py --workload mover-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``scenes.py``): ``mover-dense``, ``churn-cmd``, ``large-cli``;
``all`` runs each in turn. Every workload runs in child processes of its own
with ``src`` on ``PYTHONPATH`` and one BLAS/OpenMP thread, so runs on a
shared machine stay comparable: ``SETUP_SAMPLES - 1`` children that only set
up (for the ``setup_s`` median), then one that sets up and repeats the detect
call for ``--seconds``. With ``--trace 1`` that child alternates untraced
and traced repetitions and writes the spans to
``perfbench/out/<workload>-seed<n>.trace.jsonl``.

Output: every end-to-end metric by name with its unit (and with ``--trace 1``
every per-layer metric), each distinct failure, then as the last line one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Its metrics are the bounded end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1`` (see
``BENCHMARK.json``; ``layers.json`` says which end-to-end metric each layer
should move). ``attempted`` counts the sub-sequences the repetitions had to
process and ``failed`` those that failed or were never reached; ``correct``
is false when any output failed a check. The full result is also written to
``perfbench/out/<workload>-seed<n>.json``.

A failing detect run is data, not an error: the exit code is non-zero only
when the benchmark itself cannot run (for example, no ``src/streamdet``).
Self-tests: ``PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import BOUNDED, END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# the parent imports nothing of the program; scenes.SPECS defines these
WORKLOADS = ("mover-dense", "churn-cmd", "large-cli")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
BUDGET_S = 170.0          # per workload, set-up and measurement together


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _worker(args: list[str], timeout: float, workdir: Path) -> dict:
    """Run one worker process to completion in its own process group and
    return the result it wrote."""
    result_path = workdir / f"result-{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH"))
                   if p))
    argv = [sys.executable, str(BENCH / "worker.py"), *args,
            "--workdir", str(workdir), "--result", str(result_path),
            "--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        err = f"worker exceeded {timeout:.0f} s"
    finally:
        # also stops anything the worker left behind, such as a classifier
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"worker {' '.join(args)} failed "
                             f"(exit {proc.returncode}): {err.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set-up samples plus one measured child; returns the merged result."""
    stop = time.monotonic() + BUDGET_S
    workdir = OUT / f"{name}-seed{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed)]
    samples = [_worker(common + ["--setup-only"], SETUP_TIMEOUT_S, workdir)["setup_s"]
               for _ in range(SETUP_SAMPLES - 1)]
    trace_file = OUT / f"{name}-seed{seed}.trace.jsonl"
    result = _worker(common + ["--seconds", str(seconds), "--trace", str(int(trace)),
                               "--trace-file", str(trace_file)],
                     stop - time.monotonic(), workdir)
    samples.append(result["setup_s"])
    values = dict(result["metrics"], setup_s=statistics.median(samples),
                  peak_rss_mb=result["peak_rss_mb"])
    if trace:
        values.update(result["layers"])
    failures = {}
    for rep in result["reps"]:
        if rep["error"] is not None:
            e = rep["error"]
            key = (e["type"], e["message"], e["subseq"])
            failures.setdefault(key, {**e, "reps": 0})["reps"] += 1
    summary = {"workload": name, "seed": seed, "correct": result["correct"],
               "attempted": result["attempted"], "failed": result["failed"],
               "window_s": result["window_s"], "setup_samples": samples,
               "values": values, "failures": list(failures.values()),
               "problems": sorted({p for r in result["reps"] for p in r["problems"]}),
               "reps": result["reps"]}
    with open(OUT / f"{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _metric_lines(summary: dict, names: dict) -> list[str]:
    return [f"{summary['workload']:<12} {name:<30} {summary['values'][name]:>14.6g} {unit}"
            for name, unit in names.items()]


def report(summary: dict, trace: bool) -> list[str]:
    lines = _metric_lines(summary, END_TO_END)
    if trace:
        lines += _metric_lines(summary, {n: u for n, u in PER_LAYER.items()
                                         if n not in END_TO_END})
    for f in summary["failures"]:
        lines.append(f"{summary['workload']:<12} failure in {f['reps']} run(s) at "
                     f"sub-sequence {f['subseq']}: {f['type']}: {f['message'][:160]}"
                     + (f" ({f['where']})" if f.get("where") else ""))
    for p in summary["problems"]:
        lines.append(f"{summary['workload']:<12} output check failed: {p}")
    return lines


def contract_line(summary: dict, trace: bool) -> dict:
    names = PER_LAYER if trace else {n: END_TO_END[n] for n in BOUNDED}
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {n: {"value": summary["values"][n], "unit": u}
                        for n, u in names.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="streamdet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1,
                        help="scene seed: drives the rendered inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured wall time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that _worker stops the worker's process group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "streamdet" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'streamdet'} is missing",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    try:
        summaries = [run_workload(n, args.seed, args.seconds, trace) for n in names]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for summary in summaries:
        print("\n".join(report(summary, trace)))
    if len(summaries) == 1:
        print(json.dumps(contract_line(summaries[0], trace)))
    else:
        print(json.dumps({s["workload"]: contract_line(s, trace) for s in summaries}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
