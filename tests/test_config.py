import ast
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

import streamdet
from streamdet.config import ConfigError, PipelineConfig


def test_lambda_alias():
    assert PipelineConfig.from_dict({"lambda": 0.4}).lam == 0.4


def test_unknown_key_is_named():
    # the stage settings are module constants, not config keys
    for key in ("no_such_key", "kappa", "edge_threshold", "boundary_threshold",
                "alpha_mag", "alpha_dir", "sigma_smooth", "search_radius",
                "block_size", "step_iou", "pre_nms_beta", "det_nms_beta",
                "confidence_threshold"):
        with pytest.raises(ConfigError, match=key):
            PipelineConfig.from_dict({"subseq_len": 4, key: 1})


def test_classes_become_a_tuple():
    config = PipelineConfig.from_dict({"classes": ["cat", "dog"]})
    assert config.classes == ("cat", "dog")


def test_from_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k": 3, "lambda": 0.2}))
    config = PipelineConfig.from_file(path)
    assert (config.k, config.lam) == (3, 0.2)


@pytest.mark.parametrize("text", ['{"k": 3', "[1, 2]", '"k"'])
def test_from_file_rejects_bad_json_and_non_objects(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="config.json"):
        PipelineConfig.from_file(path)


def test_params_validation():
    with pytest.raises(ConfigError):
        PipelineConfig(max_proposals=0)


# every field with values of the wrong JSON type or just outside its limits,
# and values at its limits; numbers accept integers
NAN = float("nan")
RANGES = [
    ("lam", [-0.01, 1.01, "0.5"], [0.0, 1.0]),
    ("subseq_len", [2, 6, "3", 3.0], [3, 5]),
    ("k", [0, -1, 2.5, True], [1]),
    ("self_tune", [1, "true", None], [True, False]),
    ("rho", [0.0, -1.0, NAN, "x"], [1e-6, 2]),
    ("tau_kl", [0.0, -2.0, NAN], [1e-6]),
    ("max_proposals", [0, 2.5], [1]),
    ("min_box_area", [0.0, -1.0, NAN], [1e-6, 300]),
    ("classifier", ["nonsense", "cmd", 5], ["oracle", "always", "cmd:true"]),
    ("classify_always", ["false", 0], [True, False]),
    ("classes", ["red", ("red", 1)], [("cat",)]),
    ("seed", [-1, 1.5], [0]),
    ("resize", [15, 0, 32.5, True], [16, None]),
    ("edges_dir", [3, ["maps"]], ["maps", None]),
]


@pytest.mark.parametrize("name, bad, good", RANGES, ids=[r[0] for r in RANGES])
def test_validate_ranges(name, bad, good):
    for value in bad:
        with pytest.raises(ConfigError, match="lambda" if name == "lam" else name):
            PipelineConfig(**{name: value})
    for value in good:
        assert getattr(PipelineConfig(**{name: value}), name) == value


def test_replace_validates_again():
    config = PipelineConfig(k=2)
    assert config.replace(k=4).k == 4
    assert config.k == 2
    with pytest.raises(ConfigError):
        config.replace(k=0)
    with pytest.raises(ConfigError):
        config.replace(subseq_len=9)


def test_every_field_is_read_outside_config_py():
    # a config key nothing reads is a knob that changes nothing
    package = Path(streamdet.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "config.py":
            read |= set(re.findall(r"\bconfig\.(\w+)", path.read_text(encoding="utf-8")))
    unread = [f.name for f in fields(PipelineConfig) if f.name not in read]
    assert unread == []


def test_every_private_helper_has_a_caller():
    # a private module-level function or class that nothing outside its own
    # definition names is dead code
    package = Path(streamdet.__file__).parent
    definitions, names_in = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = {n.id if isinstance(n, ast.Name) else
                     n.attr if isinstance(n, ast.Attribute) else n.name
                     for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}
            names_in.append((node, names))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_"):
                definitions.append((path.name, node))
    orphans = [(module, node.name) for module, node in definitions
               if not any(node.name in names
                          for other, names in names_in if other is not node)]
    assert definitions
    assert orphans == []
