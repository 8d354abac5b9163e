"""The library names that the benchmark's tracer wraps must keep resolving."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).parents[1] / "perfbench" / "traced.py"


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # defines LAYERS; main() runs only as a script
    assert "laurent.mul" in traced.LAYERS
    for span, (mod_name, attrs, _) in traced.LAYERS.items():
        mod = importlib.import_module(f"rootinv.{mod_name}")
        for attr in attrs:
            if "." in attr:  # a method: the tracer patches the class dict
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(mod, cls_name)), (span, attr)
            else:
                assert callable(getattr(mod, attr, None)), (span, attr)
