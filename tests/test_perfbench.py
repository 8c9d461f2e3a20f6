"""The traced benchmark wraps modix functions by name (`perfbench/spans.py`);
a name it cannot find makes `perfbench/run.py --trace 1` fail."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_span_patch_point_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCH_POINTS
    for owner_path, attr, _layer in spans.PATCH_POINTS:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"
