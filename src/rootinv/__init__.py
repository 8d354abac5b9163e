"""Exact multiplicative invariant theory for root lattices.

The invariant algebra of a root lattice under its Weyl group is the monoid
algebra of the dominant lattice points written in fundamental-weight
coordinates.  This package computes that monoid's Hilbert basis, the
Hironaka decomposition, the binomial defining relations, and the divisor
class group, for every irreducible type, entirely over the integers.
"""

from .classgroup import AbelianGroupStructure, class_group, class_group_cross_check, weight_quotient
from .errors import RootinvError
from .intlinalg import IntMatrix, cokernel_invariant_factors, integer_kernel, smith_normal_form
from .laurent import LaurentPoly, is_invariant, orbit_sum, orbit_sum_weight_coords
from .monoids import (
    Congruence,
    CongruenceMonoid,
    HilbertBasis,
    KernelInstance,
    hilbert_basis_box,
    hilbert_basis_kernel,
    hironaka_cells,
)
from .relations import Binomial, relations_bounded, relations_equivalent, verify_relation
from .reports import (
    InvariantReport,
    family_monoid,
    report,
    report_A,
    report_B,
    report_C,
    report_D,
    report_E6,
    report_E7,
    report_selfdual,
)
from .rootsystem import RootSystem, RootSystemType, build
from .weyl import WeylElement, enumerate_group, group_order_bfs, orbit, reflections

__version__ = "0.1.0"

__all__ = [
    "AbelianGroupStructure",
    "Binomial",
    "Congruence",
    "CongruenceMonoid",
    "HilbertBasis",
    "IntMatrix",
    "InvariantReport",
    "KernelInstance",
    "LaurentPoly",
    "RootSystem",
    "RootSystemType",
    "RootinvError",
    "WeylElement",
    "build",
    "class_group",
    "class_group_cross_check",
    "cokernel_invariant_factors",
    "enumerate_group",
    "family_monoid",
    "group_order_bfs",
    "hilbert_basis_box",
    "hilbert_basis_kernel",
    "hironaka_cells",
    "integer_kernel",
    "is_invariant",
    "orbit",
    "orbit_sum",
    "orbit_sum_weight_coords",
    "reflections",
    "relations_bounded",
    "relations_equivalent",
    "report",
    "report_A",
    "report_B",
    "report_C",
    "report_D",
    "report_E6",
    "report_E7",
    "report_selfdual",
    "smith_normal_form",
    "verify_relation",
    "weight_quotient",
    "__version__",
]
