"""Pipeline configuration: defaults, validation and JSON loading."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields


class ConfigError(ValueError):
    """Configuration value outside its documented range."""


@dataclass
class PipelineConfig:
    lam: float = 0.3                 # spatio-temporal edge mixing weight
    subseq_len: int = 3              # frames per sub-sequence (one-frame overlap)
    k: int = 5                       # cluster count when not self-tuning
    self_tune: bool = False
    rho: float = 1.2                 # PMI exponent
    tau_kl: float = 2.0              # association threshold
    max_proposals: int = 500         # per frame
    pre_nms_beta: float = 0.9        # light suppression before clustering
    det_nms_beta: float = 0.75       # suppression on emitted detections
    kappa: float = 1.5
    step_iou: float = 0.65
    min_box_area: float = 1000.0
    edge_threshold: float = 0.1
    boundary_threshold: float = 0.5
    alpha_mag: float = 1.0
    alpha_dir: float = 0.5
    sigma_smooth: float = 1.5
    classifier: str = "oracle"       # oracle | cmd:PATH | always
    classify_always: bool = False
    confidence_threshold: float = 0.5
    classes: tuple = ("red", "green", "blue")
    seed: int = 0
    resize: int | None = 500         # square resize target; None keeps native size
    search_radius: int = 4           # block-matching fallback flow
    block_size: int = 5
    edges_dir: str | None = None     # optional precomputed edge maps (PGM)

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam}")
        if not 3 <= self.subseq_len <= 5:
            raise ConfigError(f"subseq_len must lie in [3, 5], got {self.subseq_len}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.rho <= 0:
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if self.tau_kl <= 0:
            raise ConfigError(f"tau_kl must be positive, got {self.tau_kl}")
        if self.max_proposals < 1:
            raise ConfigError(f"max_proposals must be >= 1, got {self.max_proposals}")
        for name in ("pre_nms_beta", "det_nms_beta", "step_iou"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1), got {v}")
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigError(f"confidence_threshold must lie in [0, 1], "
                              f"got {self.confidence_threshold}")
        if self.resize is not None and self.resize < 16:
            raise ConfigError(f"resize target must be >= 16 px, got {self.resize}")
        if self.min_box_area <= 0:
            raise ConfigError(f"min_box_area must be positive, got {self.min_box_area}")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        aliases = {"lambda": "lam"}
        kwargs = {}
        for key, value in data.items():
            name = aliases.get(key, key)
            if name not in known:
                raise ConfigError(f"unknown config key {key!r}")
            if name == "classes":
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

    def replace(self, **overrides) -> "PipelineConfig":
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(overrides)
        return PipelineConfig(**data)
