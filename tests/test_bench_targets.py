"""The benchmark imports pipeline names, wraps pipeline functions by name and
builds its workloads' inputs through the pipeline's config and classifier
specs; a deleted or renamed one would otherwise only show up as a failed
bench run, and ``perfbench/selftest.py`` is not part of the test suite."""

import ast
import functools
import importlib
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_trace_targets_resolve():
    targets = runpy.run_path(str(PERFBENCH / "tracing.py"))["TARGETS"]
    assert targets
    missing = [(module, attr) for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_stages_run_on_the_calling_thread(monkeypatch):
    # the tracer keeps one stack of open spans, so a stage called from a
    # worker thread would corrupt its span tree
    from streamdet import propagation
    from streamdet.config import PipelineConfig
    from streamdet.synth import ObjectSpec, SyntheticSpec, render

    threads = []

    def recording(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.append((name, threading.current_thread()))
            return fn(*args, **kwargs)
        return wrapper

    targets = runpy.run_path(str(PERFBENCH / "tracing.py"))["TARGETS"]
    for module, attr in targets:
        original = getattr(importlib.import_module(module), attr)
        wrapper = recording(original, attr)
        for name, mod in list(sys.modules.items()):
            if name.startswith("streamdet") and getattr(mod, attr, None) is original:
                monkeypatch.setattr(mod, attr, wrapper)
    video = render(SyntheticSpec(
        n_frames=5, width=64, height=48, seed=2, noise=8.0,
        objects=[ObjectSpec("red", (20, 16), (8, 16), velocity=(2, 0))]))
    config = PipelineConfig(subseq_len=3, max_proposals=20, min_box_area=150.0,
                            resize=None)
    propagation.detect_stream(video.frames, None, config,
                              propagation.OracleColorClassifier())
    names = {name for name, _ in threads}
    assert {"detect_stream", "block_matching_flow", "motion_boundary"} <= names
    assert [name for name, thread in threads
            if thread is not threading.main_thread()] == []


def _resolves(dotted: str) -> bool:
    """Whether a dotted name is a streamdet module or an attribute reached
    from one, importing submodules as ``from x import y`` would."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id] + parts[::-1] if isinstance(node, ast.Name) else None


def _streamdet_names(tree) -> list[str]:
    """Every streamdet name a bench file imports, at any depth, and every
    attribute it reads through a streamdet module bound by ``import``."""
    names, modules = [], {}   # local name -> module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "streamdet":
            names += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "streamdet":
                    names.append(alias.name)
                    if alias.asname:
                        modules[alias.asname] = alias.name
                    else:
                        modules["streamdet"] = "streamdet"
    for node in ast.walk(tree):
        parts = _dotted(node) if isinstance(node, ast.Attribute) else None
        if parts and parts[0] in modules:
            names.append(".".join([modules[parts[0]]] + parts[1:]))
    return names


def test_bench_imports_from_streamdet_resolve():
    checked, missing = 0, []
    for path in sorted(PERFBENCH.glob("*.py")):
        names = _streamdet_names(ast.parse(path.read_text(), str(path)))
        checked += len(names)
        missing += [(path.name, name) for name in names if not _resolves(name)]
    assert checked
    assert missing == []


def test_every_workload_sets_up(tmp_path, monkeypatch):
    # the churn-cmd classifier stub is a separate interpreter that imports
    # streamdet from PYTHONPATH
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    monkeypatch.syspath_prepend(str(PERFBENCH))
    scenes = importlib.import_module("scenes")
    for name in scenes.SPECS:
        scene = scenes.setup(name, 1, str(tmp_path / name))
        try:
            assert scene.n_subsequences > 0
        finally:
            scene.close()


def test_traced_stream_satisfies_the_tracers_argument_contract(monkeypatch):
    # the tracer's counters read stage arguments by position (the
    # associate_clusters span takes "subseq" from args[3]); a traced run
    # must raise nothing in them and record what they promise
    from streamdet import propagation
    from streamdet.config import PipelineConfig
    from streamdet.synth import ObjectSpec, SyntheticSpec, render

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    video = render(SyntheticSpec(
        n_frames=7, width=64, height=48, seed=2, noise=8.0,
        objects=[ObjectSpec("red", (20, 16), (8, 16), velocity=(2, 0))]))
    config = PipelineConfig(subseq_len=3, max_proposals=20, min_box_area=150.0,
                            lam=0.5, self_tune=True, resize=None)
    tracer = tracing.Tracer()
    with tracing.instruments(tracing.StreamLog(), tracer,
                             propagation.OracleColorClassifier):
        propagation.detect_stream(video.frames, video.flows, config,
                                  propagation.OracleColorClassifier())
    spans = tracer.spans
    assert [s for s in spans if "error" in s] == []
    assoc = [s for s in spans if s["name"] == "associate_clusters"]
    assert [s["subseq"] for s in assoc] == [0, 1, 2]
    assert all(s["registry"] == s["clusters"] for s in assoc)
    spectral = [s for s in spans if s["name"].startswith("spectral_cluster_")]
    classify = [s for s in spans if s["name"] == "classify"]
    assert spectral and all("k" in s for s in spectral)
    assert classify and all("boxes" in s for s in classify)


def test_bench_scene_objects_stay_inside_the_frame(monkeypatch):
    # synth crops an object at a frame edge; the benchmark's scenes keep
    # theirs whole, so that cropping can never change the bench's inputs
    monkeypatch.syspath_prepend(str(PERFBENCH))
    scenes = importlib.import_module("scenes")
    for name, make in scenes.SPECS.items():
        spec = make(1)
        for obj in spec.objects:
            for t in range(spec.n_frames):
                box = obj.box_at(t)
                if box is not None:
                    assert 0 <= box.x and box.x2 <= spec.width, (name, obj, t)
                    assert 0 <= box.y and box.y2 <= spec.height, (name, obj, t)
