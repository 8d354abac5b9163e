"""Exact multiplicative invariant theory for root lattices.

The invariant algebra of a root lattice under its Weyl group is the monoid
algebra of the dominant lattice points written in fundamental-weight
coordinates.  This package computes that monoid's Hilbert basis, the
Hironaka decomposition, the binomial defining relations, and the divisor
class group, for every irreducible type, entirely over the integers.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.  A name is imported on its
# first access (PEP 562), so `import rootinv` loads none of these modules.
_MODULES = {
    "classgroup": "AbelianGroupStructure class_group class_group_cross_check weight_quotient",
    "errors": "RootinvError",
    "intlinalg": "IntMatrix cokernel_invariant_factors integer_kernel smith_normal_form",
    "laurent": "LaurentPoly is_invariant orbit_sum orbit_sum_weight_coords",
    "monoids": "Congruence CongruenceMonoid HilbertBasis KernelInstance family_monoid hilbert_basis_box "
    "hilbert_basis_kernel hironaka_cells",
    "relations": "Binomial relations_bounded relations_equivalent verify_relation",
    "reports": "InvariantReport report report_A report_B report_C report_D report_E6 report_E7 report_selfdual",
    "rootsystem": "RootSystem RootSystemType build",
    "weyl": "WeylElement enumerate_group group_order_bfs orbit reflections",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
