"""The traced benchmark wraps pipeline functions by name; a deleted or
renamed function would otherwise only show up as a failed ``--trace 1`` run."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_targets_resolve():
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    assert targets
    missing = [(module, attr) for module, attr in targets
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
