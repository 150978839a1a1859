"""Pipeline configuration: defaults, validation and JSON loading."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import get_type_hints

from .imio import _TYPE_NAMES, _has_type

CLASSES = ("red", "green", "blue")   # the default class names, in score order


class ConfigError(ValueError):
    """Configuration value of the wrong type or outside its documented range."""


@dataclass
class PipelineConfig:
    """Settings of the streaming pipeline; a JSON config file (``--config``)
    holds an object with any of these keys:

    ==================== ============== =====================================
    key                  type           range and meaning
    ==================== ============== =====================================
    lambda (or lam)      number         [0, 1]; temporal edge weight (one
                                        spelling per file)
    subseq_len           integer        [3, 5]; frames per sub-sequence
                                        (consecutive ones share one frame)
    k                    integer        >= 1; cluster count, or the largest
                                        one tried when self-tuning (the
                                        flag --k N also turns self_tune
                                        off)
    self_tune            bool           choose k by the eigengap
    max_proposals        integer        >= 1; proposals per frame
    min_box_area         number         > 0; smallest window, in px
    classifier           string         oracle | cmd:COMMAND
    classify_always      bool           classify every cluster, not only
                                        new ones, with either classifier:
                                        the per-frame reference
    classes              list of        at least one; distinct class
                         strings        names, in the classifier's score
                                        order
    seed                 integer        >= 0; clustering seed
    resize               integer | null >= 16; square frame side, or null
                                        (the default) for the native size;
                                        output boxes are in the resized
                                        frame's coordinates, not mapped
                                        back to the native frame
    edges_dir            string | null  directory of spatial edge maps
                                        (PGM), one per frame
    ==================== ============== =====================================

    Constants, not keys: ``affinity.RHO`` (the PMI exponent),
    ``clustering.TAU_KL`` (the KL divergence below which a cluster inherits
    a global id and its label), ``proposals.STEP_IOU`` and ``PRE_NMS_BETA``,
    ``propagation.DET_NMS_BETA`` and ``CONFIDENCE_THRESHOLD``.

    Each key's type is its field's annotation, checked by ``imio._has_type``,
    the checker that synth specs and the other JSON inputs go through too.
    Any other key, a value of another type or one outside its range raises
    ``ConfigError`` (exit code 2 on the command line).
    """

    lam: float = 0.3
    subseq_len: int = 3
    k: int = 5
    self_tune: bool = False
    max_proposals: int = 500
    min_box_area: float = 1000.0
    classifier: str = "oracle"
    classify_always: bool = False
    classes: tuple[str, ...] = CLASSES
    seed: int = 0
    resize: int | None = None
    edges_dir: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self):
        for name, kind in get_type_hints(PipelineConfig).items():
            value = getattr(self, name)
            if not _has_type(value, kind):
                name = "lambda" if name == "lam" else name
                raise ConfigError(f"{name} must be {_TYPE_NAMES[kind]}, got {value!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam}")
        if not 3 <= self.subseq_len <= 5:
            raise ConfigError(f"subseq_len must lie in [3, 5], got {self.subseq_len}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.max_proposals < 1:
            raise ConfigError(f"max_proposals must be >= 1, got {self.max_proposals}")
        if self.classifier != "oracle" and not self.classifier.startswith("cmd:"):
            raise ConfigError(f"classifier must be oracle or cmd:COMMAND (set "
                              f"classify_always to classify every window), "
                              f"got {self.classifier!r}")
        if not self.classes or len(set(self.classes)) != len(self.classes):
            raise ConfigError(f"classes must be distinct names, at least one, "
                              f"got {list(self.classes)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.resize is not None and self.resize < 16:
            raise ConfigError(f"resize target must be >= 16 px, got {self.resize}")
        if not self.min_box_area > 0:
            raise ConfigError(f"min_box_area must be positive, got {self.min_box_area}")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        aliases = {"lambda": "lam"}
        if "lambda" in data and "lam" in data:
            raise ConfigError("config keys 'lambda' and 'lam' name one setting; "
                              "give one of them")
        kwargs = {}
        for key, value in data.items():
            name = aliases.get(key, key)
            if name not in known:
                raise ConfigError(f"unknown config key {key!r}")
            if name == "classes" and isinstance(value, list):
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)
