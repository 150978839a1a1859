"""The benchmark's workloads: synthetic scenes, their fixed pipeline config
and the set-up that turns a scene seed into the program's inputs.

Every workload shares the config ``seed=7, self_tune=True, lam=0.5,
min_box_area=250``; the scene seed passed to the benchmark only drives the
renderer's noise and textures, so object layout, frame counts and proposal
budgets (and with them the amount of work) are the same for every seed.

- ``mover-dense``: one red mover, 96x72, 17 frames, exact flow, 40
  proposals/frame, in-process oracle classifier, API call. Affinity and
  spectral clustering dominate; this is the paper's economy scene.
- ``churn-cmd``: 40 frames at 128x96, five objects of three classes entering
  and leaving at staggered frames, exact flow, 20 proposals/frame, classifier
  ``cmd:`` running ``classifier_stub.py`` over the JSON-lines pipe with
  ``frame_paths``. Many cluster births/deaths and real per-call classifier
  cost.
- ``large-cli``: 500x500, two objects, 5 frames, no flow (block matching
  runs), 15 proposals/frame, ``streamdet detect`` through ``cli.main`` with a
  config file. Proposal scoring and block matching dominate.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass, field

from streamdet.clustering import make_subsequences
from streamdet.config import PipelineConfig
from streamdet.core import Box
from streamdet.evaluate import gt_index
from streamdet.imio import list_frames
from streamdet.propagation import (CommandClassifier, OracleColorClassifier,
                                   make_classifier)
from streamdet.synth import ObjectSpec, SyntheticSpec, render, write_video

FIXED_CONFIG = {"seed": 7, "self_tune": True, "lam": 0.5, "min_box_area": 250.0}
STUB = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "classifier_stub.py")


@dataclass
class Scene:
    """Everything a measured repetition needs, produced by ``setup``."""

    name: str
    seed: int
    workdir: str
    config: PipelineConfig
    n_frames: int
    frame_size: tuple[int, int]              # (width, height)
    gt_by_frame: dict[int, list[dict]]
    frames: list = field(default_factory=list, repr=False)
    flows: list | None = field(default=None, repr=False)
    frame_paths: list[str] | None = None
    classifier: object = None                # API workloads only
    classifier_type: type = OracleColorClassifier
    cli_argv: list[str] | None = None        # CLI workload only

    @property
    def n_subsequences(self) -> int:
        return len(make_subsequences(self.n_frames, self.config.subseq_len))

    @property
    def cli_out(self) -> str:
        return os.path.join(self.workdir, "detect-out")

    def recover(self):
        """After a timed-out repetition, replace a command classifier that
        may be left mid-request by a fresh, warmed-up one."""
        if self.classifier_type is CommandClassifier:
            self.close()
            self.classifier = _command_classifier(self)

    def close(self):
        """Stop the classifier subprocess, if any, and wait for it to end.

        ``CommandClassifier.close`` only closes the pipe and waits, which a
        stalled classifier survives, so the process is killed after that.
        """
        proc = getattr(self.classifier, "_proc", None)
        if proc is None:
            return
        try:
            self.classifier.close()
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _config(**overrides) -> PipelineConfig:
    return PipelineConfig(**{**FIXED_CONFIG, **overrides})


def _mover_dense(seed: int) -> SyntheticSpec:
    return SyntheticSpec(n_frames=17, width=96, height=72, seed=seed, noise=8.0,
                         objects=[ObjectSpec("red", (26, 22), (8, 24),
                                             velocity=(3, 0))])


def _churn_cmd(seed: int) -> SyntheticSpec:
    return SyntheticSpec(n_frames=40, width=128, height=96, seed=seed, objects=[
        ObjectSpec("red", (24, 20), (4, 10), velocity=(2, 0), enter=0, exit=18),
        ObjectSpec("green", (22, 22), (100, 60), velocity=(-2, 0), enter=6, exit=26),
        ObjectSpec("blue", (20, 24), (80, 4), velocity=(0, 2), enter=12, exit=32),
        ObjectSpec("red", (26, 18), (10, 70), velocity=(3, 0), enter=20),
        ObjectSpec("green", (20, 20), (100, 8), velocity=(-1, 0), enter=28),
    ])


def _large_cli(seed: int) -> SyntheticSpec:
    return SyntheticSpec(n_frames=5, width=500, height=500, seed=seed, objects=[
        ObjectSpec("red", (60, 50), (80, 100), velocity=(6, 2)),
        ObjectSpec("blue", (70, 60), (350, 300), velocity=(-5, -3)),
    ])


SPECS = {"mover-dense": _mover_dense, "churn-cmd": _churn_cmd,
         "large-cli": _large_cli}


def _command_classifier(scene: Scene):
    command = " ".join(["exec", shlex.quote(sys.executable), shlex.quote(STUB)]
                       + list(scene.config.classes))
    classifier, _ = make_classifier("cmd:" + command, scene.config.classes)
    # warm-up: interpreter start-up belongs to set-up, not to the first result
    classifier.classify(scene.frames[0], [Box(0, 0, 8, 8)],
                        frame_path=scene.frame_paths[0])
    return classifier


def setup(name: str, seed: int, workdir: str) -> Scene:
    """Render the workload's scene for ``seed`` and prepare its inputs under
    ``workdir``: frames, flow and gt files where the workload reads them, the
    CLI config file, and a warmed-up classifier."""
    if name not in SPECS:
        raise ValueError(f"unknown workload {name!r}; choose from {list(SPECS)}")
    video = render(SPECS[name](seed))
    spec = video.spec
    os.makedirs(workdir, exist_ok=True)
    gt = {t: objs for t, objs in enumerate(video.gt)}
    common = dict(name=name, seed=seed, workdir=workdir, n_frames=spec.n_frames,
                  frame_size=(spec.width, spec.height), gt_by_frame=gt)

    if name == "mover-dense":
        config = _config(max_proposals=40, resize=None)
        return Scene(config=config, frames=video.frames, flows=video.flows,
                     classifier=OracleColorClassifier(config.classes), **common)

    write_video(video, workdir)
    frames_dir = os.path.join(workdir, "frames")
    if name == "churn-cmd":
        config = _config(max_proposals=20, resize=None)
        scene = Scene(config=config, frames=video.frames, flows=video.flows,
                      frame_paths=list_frames(frames_dir),
                      classifier_type=CommandClassifier,
                      **common)
        scene.classifier = _command_classifier(scene)
        return scene

    # large-cli: the program sees only the files; the default resize (500)
    # is a no-op on 500x500 frames
    cli_config = {**FIXED_CONFIG, "max_proposals": 15, "classifier": "oracle"}
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(cli_config, fh)
    with open(os.path.join(workdir, "gt.json"), encoding="utf-8") as fh:
        gt_doc = json.load(fh)
    scene = Scene(config=_config(max_proposals=15), **common)
    scene.gt_by_frame = gt_index(gt_doc)
    scene.cli_argv = ["detect", frames_dir, "--out", scene.cli_out,
                      "--config", config_path]
    return scene
