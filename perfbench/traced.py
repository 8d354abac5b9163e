"""Run one rootinv CLI job in-process with the library's layers wrapped in spans.

    python3 perfbench/traced.py OUT.json ARGV...

Imports ``rootinv.cli`` from ``src``, replaces each public function listed in
LAYERS by a wrapper in every ``rootinv`` module that holds it (so names
imported with ``from .x import y`` are covered too), calls
``rootinv.cli.main(ARGV)`` and writes the spans and their per-layer summary
to OUT.json when the job ends.  The job's stdout passes through unchanged.
Nothing under ``src`` is modified.

Counts come from arguments and return values only.  Per-point helpers such
as ``Congruence.holds`` are deliberately not wrapped: they run about 10^7
times on the larger boxes and the wrapper would dominate their cost.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from math import comb, prod

T_START = time.perf_counter()


def _len_result(key):
    return lambda args, result: {key: len(result)}


def _calls(args, result):
    return {"calls": 1}


def _mul_counts(args, result):
    a, b = args[0], args[1]
    return {"calls": 1, "term_pairs": a.nterms * (b.nterms if hasattr(b, "nterms") else 1), "terms_out": result.nterms}


def _box_counts(args, result):
    return {"calls": 1, "points_scanned": prod(args[0].generator_orders()), "points_kept": len(result)}


def _relations_counts(args, result):
    g, bound = len(args[0]), args[1]
    return {"binomials": len(result), "factorizations": sum(comb(d + g - 1, g - 1) for d in range(1, bound + 1))}


def _none(args, result):
    return {}


# span name -> (module, attribute names, counts from (args, result))
LAYERS = {
    "weyl.reflections": ("weyl", ["reflections"], lambda a, r: {"elements": a[0].weyl_order, "found": len(r)}),
    "weyl.group_order_bfs": ("weyl", ["group_order_bfs"], lambda a, r: {"elements": r}),
    "weyl.h1_cyclic2": ("weyl", ["h1_cyclic2"], _calls),
    "weyl.orbit_weight_coords": ("weyl", ["orbit_weight_coords"], _len_result("points")),
    "laurent.mul": ("laurent", ["LaurentPoly.__mul__", "LaurentPoly.__rmul__"], _mul_counts),
    "laurent.orbit_sum_weight_coords": ("laurent", ["orbit_sum_weight_coords"], lambda a, r: {"terms": r.nterms}),
    "laurent.render": ("laurent", ["render"], _len_result("chars")),
    "laurent.is_invariant": ("laurent", ["is_invariant"], _calls),
    "monoids.box_elements": ("monoids", ["box_elements"], _box_counts),
    "monoids.hilbert_basis_box": ("monoids", ["hilbert_basis_box"], _none),
    "monoids.hironaka_cells": ("monoids", ["hironaka_cells"], _none),
    "monoids.hilbert_basis_kernel": ("monoids", ["hilbert_basis_kernel"], _len_result("basis")),
    "monoids.verify_cell_partition": ("monoids", ["verify_cell_partition"], lambda a, r: {"points": r}),
    "monoids.toric_class_group": ("monoids", ["toric_class_group"], _none),
    "relations.relations_bounded": ("relations", ["relations_bounded"], _relations_counts),
    "relations.relations_equivalent": ("relations", ["relations_equivalent"], _none),
    "intlinalg.cokernel_invariant_factors": ("intlinalg", ["cokernel_invariant_factors"], _calls),
    "intlinalg.solve_exact": ("intlinalg", ["solve_exact"], _calls),
    "classgroup.class_group_cross_check": ("classgroup", ["class_group_cross_check"], _none),
    "reports.omega_expand": ("reports", ["omega_expand"], _none),
    "reports.report": (
        "reports",
        ["report_A", "report_B", "report_C", "report_D", "report_E6", "report_E7", "report_selfdual", "report_B_sym"],
        _none,
    ),
    "rootsystem.build": ("rootsystem", ["build"], _calls),
}


class Tracer:
    """In-memory span recorder: (name, start, end, parent index, counts)."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def span(self, name, fn, counts, args, kwargs):
        idx = len(self.spans)
        rec = {"name": name, "parent": self.stack[-1] if self.stack else None, "counts": {}, "start": time.perf_counter()}
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()
        rec["counts"] = counts(args, result)
        return result

    def wrap(self, name, fn, counts):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, counts, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def summary(self) -> dict[str, dict]:
        """Per span name: total time (outermost spans of that name), self time, summed counts."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        layers: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            agg = layers.setdefault(s["name"], {"s": 0.0, "self_s": 0.0, "counts": {}})
            dur = s["end"] - s["start"]
            agg["self_s"] += dur - child_time[i]
            if not self._has_ancestor_named(i, s["name"]):
                agg["s"] += dur
            for k, v in s["counts"].items():
                agg["counts"][k] = agg["counts"].get(k, 0) + v
        return layers

    def _has_ancestor_named(self, i, name):
        p = self.spans[i]["parent"]
        while p is not None:
            if self.spans[p]["name"] == name:
                return True
            p = self.spans[p]["parent"]
        return False


def install(tracer: Tracer) -> None:
    """Replace every wrapped function wherever a rootinv module holds it."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "rootinv" or n.startswith("rootinv.")]
    for name, (mod_name, attrs, counts) in LAYERS.items():
        mod = importlib.import_module(f"rootinv.{mod_name}")
        for attr in attrs:
            if "." in attr:  # a method: patch the class
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, tracer.wrap(name, cls.__dict__[meth], counts))
                continue
            orig = getattr(mod, attr)
            wrapped = tracer.wrap(name, orig, counts)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)


class CountingWriter:
    """Pass-through text stream that counts the bytes written."""

    def __init__(self, inner):
        self.inner = inner
        self.nbytes = 0

    def write(self, s: str) -> int:
        self.nbytes += len(s) if s.isascii() else len(s.encode())
        return self.inner.write(s)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.abspath("src"))
    import rootinv.cli

    import_s = time.perf_counter() - T_START
    tracer = Tracer()
    install(tracer)
    stdout = CountingWriter(sys.stdout)
    sys.stdout = stdout
    try:
        rc = tracer.span("cli.main", rootinv.cli.main, lambda a, r: {}, (argv,), {})
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = stdout.inner
        sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(
            {"import_s": import_s, "stdout_bytes": stdout.nbytes, "layers": tracer.summary(), "spans": tracer.spans},
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main())
