"""The library names that the benchmark's tracer wraps must keep resolving, and the library
defines nothing, public or private, that neither the library, `rootinv.__all__` nor the tracer reaches."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import rootinv

TRACED = Path(__file__).parents[1] / "perfbench" / "traced.py"
SRC = Path(__file__).parents[1] / "src" / "rootinv"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)  # defines LAYERS; main() runs only as a script
    return traced.LAYERS


def test_every_traced_layer_resolves():
    layers = _layers()
    assert "laurent.mul" in layers
    for span, (mod_name, attrs, _) in layers.items():
        mod = importlib.import_module(f"rootinv.{mod_name}")
        for attr in attrs:
            if "." in attr:  # a method: the tracer patches the class dict
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(mod, cls_name)), (span, attr)
            else:
                assert callable(getattr(mod, attr, None)), (span, attr)


def test_every_public_definition_is_reached():
    # A module-level function, class or constant, public or private, must be used by another top-level
    # statement under src/ (an import alone is no use), be in rootinv.__all__, be wrapped by
    # the tracer, or be a module hook that the interpreter calls (PEP 562).
    traced = {attr for _, attrs, _ in _layers().values() for attr in attrs}
    hooks = {"__getattr__", "__dir__"}
    users: dict[str, set] = {}  # name -> the top-level statements that read it
    defs = []
    for path in sorted(SRC.glob("*.py")):
        for i, node in enumerate(ast.parse(path.read_text()).body):
            here = (path.stem, i)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{path.stem}.{node.name}", node.name, here))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):  # a module-level constant
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(f"{path.stem}.{t.id}", t.id, here) for t in targets if isinstance(t, ast.Name)]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    users.setdefault(sub.id, set()).add(here)
                elif isinstance(sub, ast.Attribute):
                    users.setdefault(sub.attr, set()).add(here)
    unreached = [
        qualname
        for qualname, name, here in defs
        if not users.get(name, set()) - {here} and name not in rootinv.__all__ and name not in traced | hooks
    ]
    assert unreached == []
