"""Self-tests of the benchmark harness (not of the program).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the program's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import run  # noqa: E402
import scenes  # noqa: E402
import streamdet.propagation as propagation  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from streamdet.propagation import CommandClassifier, make_classifier  # noqa: E402


@pytest.fixture
def mover(tmp_path):
    scene = scenes.setup("mover-dense", 1, str(tmp_path / "work"))
    yield scene
    scene.close()


def _bindings():
    """Every (module, attr) binding of every trace target, with its object."""
    out = {}
    for module, attr in tracing.TARGETS:
        original = getattr(sys.modules[module], attr)
        for name, mod in list(sys.modules.items()):
            if name.startswith("streamdet") and getattr(mod, attr, None) is original:
                out[(name, attr)] = original
    return out


def test_trace_wrappers_installed_then_restored():
    originals = _bindings()
    stream = propagation.stream_cluster
    classify = propagation.OracleColorClassifier.classify
    with tracing.instruments(tracing.StreamLog(), tracing.Tracer(),
                             propagation.OracleColorClassifier):
        assert propagation.stream_cluster is not stream
        assert propagation.OracleColorClassifier.classify is not classify
        for (name, attr), original in originals.items():
            assert getattr(sys.modules[name], attr).__wrapped__ is original
    assert propagation.stream_cluster is stream
    assert propagation.OracleColorClassifier.classify is classify
    assert _bindings() == originals


def test_injected_failure_counted_not_raised(mover, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(propagation, "generate_proposals", broken)
    for tracer in (None, tracing.Tracer()):
        rep = worker.run_rep(mover, tracer, run_id="r")
        assert rep["error"]["type"] == "RuntimeError"
        assert rep["error"]["subseq"] == 0
        assert metrics.end_to_end([rep], 1.0)["failed_frac"] == 1.0
    assert propagation.generate_proposals is broken   # restored to the patch


def _uniform_affinity(features, model, rho=1.2):
    return np.ones((len(features), len(features)))


def test_completed_run_is_checked_and_scored(mover, monkeypatch):
    # stand in a working affinity so the stream runs to its end
    monkeypatch.setattr(propagation, "affinity_matrix", _uniform_affinity)
    tracer = tracing.Tracer()
    reps = [worker.run_rep(mover, None, "a"), worker.run_rep(mover, tracer, "b")]
    metrics.check_repeats(reps)
    for rep in reps:
        assert rep["error"] is None and rep["problems"] == []
        assert len(rep["done"]) == rep["expected"] == mover.n_subsequences
    e2e = metrics.end_to_end(reps, 99.0)
    assert e2e["failed_frac"] == 0.0 and e2e["frames_per_s"] > 0
    assert e2e["first_result_s"] < 99.0
    layers = metrics.layer_metrics(tracer.spans, reps[1]["detections"])
    assert layers["clustering.kl_evals"] > 0
    assert layers["propagation.classify_calls"] > 0
    assert layers["affinity.density_s"] > 0


def test_bad_output_fails_the_check():
    rep = {"detections": [{"frame": 3, "x": -1, "y": 0, "w": 5, "h": 5,
                           "class": "purple"}],
           "stats": {"classified_windows": 5, "total_windows": 4, "frames": 2},
           "error": None, "done": [0.1], "expected": 1}
    problems = metrics.check_rep(rep, 3, (10, 10), ("red",))
    assert len(problems) == 5


def test_nondeterministic_output_fails_the_check():
    base = {"detections": [], "stats": None, "error": None, "problems": []}
    reps = [dict(base, problems=[]), dict(base, problems=[]),
            dict(base, detections=[{"frame": 0}], problems=[])]
    metrics.check_repeats(reps)
    assert [bool(r["problems"]) for r in reps] == [False, False, True]


def test_stalled_classifier_times_out(tmp_path, monkeypatch):
    monkeypatch.setattr(propagation, "affinity_matrix", _uniform_affinity)
    scene = scenes.setup("churn-cmd", 1, str(tmp_path / "work"))
    try:
        scene.close()
        stall = "import sys, time; sys.stdin.readline(); time.sleep(60)"
        scene.classifier, _ = make_classifier(
            f"cmd:exec {sys.executable} -c '{stall}'")
        stalled = scene.classifier
        rep = worker.run_rep(scene, None, "r", timeout=2.0)
        assert rep["error"]["type"] == "RepTimeout"
        assert stalled._proc.poll() is not None      # stopped and reaped
        assert isinstance(scene.classifier, CommandClassifier)
        assert scene.classifier is not stalled       # a fresh stub took over
    finally:
        scene.close()


def test_self_time_subtracts_children():
    spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 1.0, "end": 4.0},
             {"id": 2, "parent": 1, "start": 2.0, "end": 3.0}]
    assert metrics.self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_benchmark_json_matches_definitions():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(scenes.SPECS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        {n: metrics.END_TO_END[n] for n in metrics.BOUNDED}
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == metrics.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_layer_map_covers_every_layer_metric():
    doc = json.loads((BENCH / "layers.json").read_text())
    listed = [m for layer in doc["layers"] for m in layer["metrics"]]
    assert sorted(listed) == sorted(list(metrics.LAYER_TIMES)
                                    + list(metrics.LAYER_COUNTS))
    for layer in doc["layers"]:
        assert set(layer["should_move"]) <= set(metrics.END_TO_END)
        assert set(layer["exercised_on"] + layer["bypassed_on"]) <= set(run.WORKLOADS)


def _bench(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)


def test_printed_metrics_are_declared_and_seed_changes_inputs_only(tmp_path):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    seen = {}
    for seed, trace in ((1, 0), (2, 0), (1, 1)):
        proc = _bench("--workload", "mover-dense", "--seed", str(seed),
                      "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        key = "per_layer" if trace else "end_to_end"
        assert {n: m["unit"] for n, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in doc[key]}
        printed = {line.split()[1] for line in lines[:-1]
                   if len(line.split()) == 4}
        assert printed <= set(declared)
        assert set(metrics.END_TO_END) <= printed
        seen[(seed, trace)] = set(result["metrics"])
    assert seen[(1, 0)] == seen[(2, 0)]
    one = scenes.setup("mover-dense", 1, str(tmp_path / "a"))
    two = scenes.setup("mover-dense", 2, str(tmp_path / "b"))
    assert not np.array_equal(one.frames[0], two.frames[0])
    assert one.n_subsequences == two.n_subsequences


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "mover-dense", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
