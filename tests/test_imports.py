"""Each command loads only the modules it runs: `import rootinv` and `import rootinv.cli` load no
numpy, and the package's public names are resolved on first access."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rootinv

SRC = Path(__file__).parents[1] / "src"

# Prints the rootinv modules and whether the module probe is loaded after the statements before it.
_LOADED = 'print(json.dumps([sorted(n for n in sys.modules if n.startswith("rootinv.")), {probe!r} in sys.modules]))'

# Runs the CLI as `python -m rootinv.cli` does (as __main__, so a second import of rootinv.cli
# would show), on the arguments after the script.
_RUN_CLI = """
import contextlib, io, runpy
sys.argv[0] = "rootinv"
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("rootinv.cli", run_name="__main__")
"""


def _loaded(code: str, *argv: str, probe: str = "numpy") -> tuple[set[str], bool]:
    """The rootinv modules (without the package prefix) and the presence of probe after code runs."""
    script = f"import json, sys\n{code}\n{_LOADED.format(probe=probe)}"
    out = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    modules, numpy = json.loads(out.splitlines()[-1])
    return {m.removeprefix("rootinv.") for m in modules}, numpy


@pytest.mark.parametrize(
    "statement,want",
    [("import rootinv", set()), ("import rootinv.cli", {"cli", "errors"})],
    ids=["rootinv", "rootinv.cli"],
)
def test_imports_load_no_numpy(statement, want):
    assert _loaded(statement) == (want, False)


_CLASSGROUP = {"classgroup", "errors", "intlinalg", "monoids", "rootsystem", "weyl"}
_INVARIANTS = _CLASSGROUP | {"reports"}


@pytest.mark.parametrize(
    "argv,want",
    [
        (("hilbert", "--ker", "1 2 -3"), {"errors", "intlinalg", "monoids"}),
        (("classgroup", "A", "2"), _CLASSGROUP),
        (("invariants", "A", "2"), _INVARIANTS),
        (("invariants", "A", "2", "--expand"), _INVARIANTS | {"laurent"}),
        (("invariants", "A", "2", "--relations"), _INVARIANTS | {"relations", "fixtures"}),
        (("selfcheck",), _INVARIANTS | {"laurent", "relations", "fixtures", "selfcheck"}),
    ],
    ids=["hilbert", "classgroup", "invariants", "invariants-expand", "invariants-relations", "selfcheck"],
)
def test_each_command_loads_the_modules_it_runs(argv, want):
    assert _loaded(_RUN_CLI, *argv) == (want, True)


def test_a_banded_product_loads_no_numpy_ma():
    # np.unique calls np.ma.is_masked, which imports numpy.ma (10-13 ms); C7's products are banded
    assert _loaded(_RUN_CLI, "invariants", "C", "7", "--expand", probe="numpy.ma") == (_INVARIANTS | {"laurent"}, False)


_ALL = [
    "AbelianGroupStructure", "Binomial", "Congruence", "CongruenceMonoid", "HilbertBasis", "IntMatrix",
    "InvariantReport", "KernelInstance", "LaurentPoly", "RootSystem", "RootSystemType", "RootinvError",
    "WeylElement", "build", "class_group", "class_group_cross_check", "cokernel_invariant_factors",
    "enumerate_group", "family_monoid", "group_order_bfs", "hilbert_basis_box", "hilbert_basis_kernel",
    "hironaka_cells", "integer_kernel", "is_invariant", "orbit", "orbit_sum", "orbit_sum_weight_coords",
    "reflections", "relations_bounded", "relations_equivalent", "report", "report_A", "report_B",
    "report_C", "report_D", "report_E6", "report_E7", "report_selfdual", "smith_normal_form",
    "verify_relation", "weight_quotient", "__version__",
]  # fmt: skip


def test_package_surface():
    assert rootinv.__all__ == _ALL
    # dir lists the names before any is loaded
    assert _loaded("import rootinv\nassert set(rootinv.__all__) <= set(dir(rootinv))") == (set(), False)
    names: dict = {}
    exec("from rootinv import *", names)
    for name in _ALL:
        assert names[name] is getattr(rootinv, name) is not None, name
    assert set(_ALL) <= set(dir(rootinv))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        rootinv.no_such_name
