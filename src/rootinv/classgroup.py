"""Divisor class groups of the invariant algebras.

For an irreducible system the class group of the invariant ring is either
the (finite) weight-by-root lattice quotient — when no reflection acts
diagonalizably on the root lattice — or trivial, when some reflection does.
The reflections of W are its root reflections, so the decision is made on
those for every type, from the parities of their coroot pairings;
`class_group_cross_check` compares the group computed this way with the
toric divisor class group of the associated affine monoid algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import IntVec, cokernel_invariant_factors
from .monoids import family_monoid, toric_class_group
from .rootsystem import RootSystem
from .weyl import DEFAULT_GROUP_CAP, coroot_pairings, reflections, root_reflections


@dataclass(frozen=True)
class AbelianGroupStructure:
    """A finite abelian group given by its invariant factors (each > 1)."""

    invariant_factors: IntVec

    @property
    def order(self) -> int:
        out = 1
        for f in self.invariant_factors:
            out *= f
        return out

    @property
    def name(self) -> str:
        if not self.invariant_factors:
            return "0"
        return " x ".join(f"Z/{f}" for f in self.invariant_factors)


def weight_quotient(rs: RootSystem) -> AbelianGroupStructure:
    """Weight lattice modulo root lattice: cokernel of the Cartan matrix."""
    return AbelianGroupStructure(cokernel_invariant_factors(rs.cartan))


@dataclass(frozen=True)
class ClassGroupResult:
    group: AbelianGroupStructure
    diagonalizable_rank: int
    method: str

    @property
    def name(self) -> str:
        return self.group.name


def class_group(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> ClassGroupResult:
    """Divisor class group of the multiplicative invariant algebra.

    Trivial as soon as a diagonalizable reflection exists; otherwise the
    full weight quotient survives.  A root reflection s = 1 - b (x) c (see
    weyl.coroot_pairings) is diagonalizable on the root lattice exactly when
    H^1(<s>, Z^n) = Z/2, and log2 |H^1| = rank_Q(b (x) c) - rank_F2(b (x) c)
    (weyl.h1_cyclic2): b (x) c has rank 1 over Q, and over F_2 it vanishes
    exactly when every entry of b or every entry of c is even.  The
    diagonalizable ones generate an elementary abelian 2-subgroup whose rank
    is their number.  The method label says how the reflections were checked:

    - ``"exhaustive-scan"``: |W| <= cap, and a reflection scan over all of W
      found exactly the root reflections (AssertionError otherwise);
    - ``"family-fallback"``: |W| > cap, and W was not enumerated.
    """
    b, c = coroot_pairings(rs)
    rank = int(((b % 2 == 0).all(axis=1) | (c % 2 == 0).all(axis=1)).sum())
    method = "family-fallback"
    if rs.weyl_order <= cap:
        if reflections(rs, cap) != root_reflections(rs):
            raise AssertionError(f"{rs.rtype.name}: the reflection scan disagrees with the root reflections")
        method = "exhaustive-scan"
    return ClassGroupResult(weight_quotient(rs) if rank == 0 else AbelianGroupStructure(()), rank, method)


def class_group_cross_check(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> ClassGroupResult:
    """Recompute via the toric route and insist the two answers agree."""
    res = class_group(rs, cap)
    toric = toric_class_group(family_monoid(rs))
    if toric != res.group.invariant_factors:
        raise AssertionError(
            f"{rs.rtype.name}: reflection route {res.group.invariant_factors} "
            f"!= toric route {toric}"
        )
    return res
