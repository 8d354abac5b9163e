"""Multiplicative invariant algebras of root lattices under their Weyl groups.

For each irreducible type the exponential map identifies the invariant
algebra with the monoid algebra of M = (root lattice) intersect (dominant
weight cone), written in fundamental-weight coordinates.  M is cut out of
Z+^rank by explicit congruences; the reports package the Hilbert basis,
the primary/secondary split, the Hironaka cells and the free/residual
factorization, plus orbit-sum descriptions of every generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import TYPE_CHECKING, Callable

from .classgroup import class_group
from .errors import DEFAULT_BOX_CAP, DEFAULT_ORBIT_CAP, InvalidRank
from .intlinalg import IntVec
from .monoids import (
    CongruenceMonoid,
    HilbertBasis,
    family_monoid,
    graded_lex_sorted,
    hilbert_basis_box,
    hironaka_cells,
    split_free_part,
)
from .rootsystem import RootSystem, RootSystemType, build

if TYPE_CHECKING:
    from .laurent import LaurentPoly


@dataclass(frozen=True)
class GeneratorInfo:
    coords: IntVec
    role: str  # "primary" | "secondary" | "unit"
    name: str
    omega: str  # orbit-sum power-product description


@dataclass(frozen=True)
class InvariantReport:
    rtype: RootSystemType
    monoid: CongruenceMonoid
    hilbert_basis: HilbertBasis
    primaries: tuple[IntVec, ...]
    secondaries: tuple[IntVec, ...]
    free_coordinates: tuple[int, ...]  # 0-based monoid coordinates split off as free
    residual: CongruenceMonoid | None
    generator_count: int
    polynomial: bool
    generators: tuple[GeneratorInfo, ...]
    laurent_unit: str | None
    structure: str
    class_group_note: str
    box_cap: int = DEFAULT_BOX_CAP

    @cached_property
    def cells(self) -> tuple[IntVec, ...]:
        """The Hironaka cells, built on first read: only the --hironaka output needs them."""
        return hironaka_cells(self.monoid, self.box_cap)


def omega_description(m: IntVec) -> str:
    """Power-product of fundamental-weight orbit sums for a monoid element."""
    bits = []
    for i, e in enumerate(m, start=1):
        if e == 1:
            bits.append(f"o(w{i})")
        elif e > 1:
            bits.append(f"o(w{i})^{e}")
    return "*".join(bits) if bits else "1"


def _odd_pair_names(n: int) -> list[tuple[IntVec, str]]:
    """The products e_i + e_j of odd coordinates i < j <= n, named g{i}_{j}."""
    return [
        (tuple(1 if k in (i, j) else 0 for k in range(1, n + 1)), f"g{i}_{j}")
        for i, j in combinations(range(1, n + 1, 2), 2)
    ]


def _d_secondary_names(n: int) -> list[tuple[IntVec, str]]:
    """D_n secondaries: odd pairs below n-1, then products with the two half-spin coordinates."""
    out = [(v + (0, 0), name) for v, name in _odd_pair_names(n - 2)]
    for i in range(1, n - 1, 2):
        v = [0] * n
        v[i - 1] = 1
        if n % 2 == 0:
            v[n - 2] = v[n - 1] = 1
            out.append((tuple(v), f"b{i}"))
        else:
            for last in (n - 1, n):
                v2 = list(v)
                v2[last - 1] = 2
                out.append((tuple(v2), f"g{i}_{last}"))
    if n % 2:
        out.append((tuple(1 if k >= n - 1 else 0 for k in range(1, n + 1)), f"g{n - 1}_{n}"))
    return out


# What differs between types: the structure sentence and the rule naming
# the secondary generators by rank (unnamed ones become q1, q2, ...).
# Keyed by family letter, else by type name; every type not listed has
# weight lattice = root lattice and takes the "selfdual" row.  The A text
# names the ring and the order n of the symmetric group S_n.
_TYPE_TABLE: dict[str, tuple[str, Callable[[int], list[tuple[IntVec, str]]] | None]] = {
    "A": ("{ring}; congruence sum(i*l_i) = 0 mod {n}", None),
    "B": ("polynomial ring on the elementary symmetric functions of x_j + 1/x_j", None),
    "C": (
        "free part on even coordinates; residual second-Veronese-type factor on odd ones",
        _odd_pair_names,
    ),
    "D": (
        "free part on even coordinates; residual factor mixing the two half-spin coordinates",
        _d_secondary_names,
    ),
    "E6": (
        "two free coordinates (w2, w4); rank-4 residual with congruence k1+2k2+k3+2k4 = 0 mod 3",
        None,
    ),
    "E7": (
        "four free coordinates (w1, w3, w4, w6); residual = second Veronese on three variables",
        None,
    ),
    "selfdual": ("polynomial ring on the fundamental-weight orbit sums", None),
}


def report(rs: RootSystem, box_cap: int = DEFAULT_BOX_CAP) -> InvariantReport:
    """The invariant algebra of the root lattice of rs under its Weyl group."""
    t = rs.rtype
    structure, name_rule = (
        _TYPE_TABLE.get(t.family) or _TYPE_TABLE.get(t.name) or _TYPE_TABLE["selfdual"]
    )
    monoid = family_monoid(rs)
    z = monoid.generator_orders()
    if z != rs.weight_orders:
        raise AssertionError("congruence orders disagree with weight orders mod the root lattice")
    # a lattice of index |P/Q| that holds the simple roots (the Cartan columns, in weight
    # coordinates) is the root lattice
    if monoid.lattice_index() != rs.index:
        raise AssertionError("the congruence lattice's index differs from |P/Q|")
    if not all(c.holds(col) for c in monoid.congruences for col in zip(*rs.cartan.rows)):
        raise AssertionError("a simple root fails a congruence of the family monoid")
    hb = hilbert_basis_box(monoid, box_cap)
    primaries = graded_lex_sorted(
        tuple(zi if j == i else 0 for j in range(monoid.dim)) for i, zi in enumerate(z)
    )
    prim_set = set(primaries)
    secondaries = tuple(h for h in hb if h not in prim_set)
    free, residual = split_free_part(monoid)
    polynomial = len(hb) == monoid.dim
    gens = []
    names = dict(name_rule(t.rank)) if name_rule else {}
    for h in hb:
        if h in prim_set:
            role, name = "primary", f"p{_nonzero_pos(h) + 1}"
        else:
            role, name = "secondary", names.get(h, f"q{len(gens) + 1}")
        gens.append(GeneratorInfo(h, role, name, omega_description(h)))
    ring = "polynomial ring" if polynomial else "non-free monoid algebra"
    return InvariantReport(
        rtype=t,
        monoid=monoid,
        hilbert_basis=hb,
        primaries=primaries,
        secondaries=secondaries,
        free_coordinates=free,
        residual=residual if 0 < residual.dim < monoid.dim else None,
        generator_count=len(hb),
        polynomial=polynomial,
        generators=tuple(gens),
        laurent_unit=None,
        structure=structure.format(ring=ring, n=t.rank + 1),
        # cap=0: decided on the root reflections alone, without enumerating W
        class_group_note=class_group(rs, cap=0).name,
        box_cap=box_cap,
    )


def _nonzero_pos(v: IntVec) -> int:
    return next(k for k, x in enumerate(v) if x)


def report_A(n: int, box_cap: int = DEFAULT_BOX_CAP) -> InvariantReport:
    """Invariants of the rank-(n-1) root lattice under the symmetric group S_n."""
    if n < 2:
        raise InvalidRank("need n >= 2")
    return report(build("A", n - 1), box_cap)


def report_B(n: int, box_cap: int = DEFAULT_BOX_CAP) -> InvariantReport:
    return report(build("B", n), box_cap)


def report_C(n: int, box_cap: int = DEFAULT_BOX_CAP) -> InvariantReport:
    return report(build("C", n), box_cap)


def report_D(n: int, box_cap: int = DEFAULT_BOX_CAP) -> InvariantReport:
    return report(build("D", n), box_cap)


def report_E6(box_cap: int = DEFAULT_BOX_CAP) -> InvariantReport:
    return report(build("E", 6), box_cap)


def report_E7(box_cap: int = DEFAULT_BOX_CAP) -> InvariantReport:
    return report(build("E", 7), box_cap)


def report_selfdual(name: str, box_cap: int = DEFAULT_BOX_CAP) -> InvariantReport:
    rs = build(RootSystemType.parse(name))
    if rs.weight_orders != (1,) * rs.rank:
        raise InvalidRank(f"{name} does not have weight lattice equal to root lattice")
    return report(rs, box_cap)


def report_B_sym(n: int) -> InvariantReport:
    """Invariants of the B-type lattice under the symmetric subgroup only.

    Mixed Laurent polynomial ring: the top elementary symmetric function is
    a unit, so the monoid is Z+^(n-1) + Z.
    """
    rs = build(RootSystemType("B", n))
    m = CongruenceMonoid(n - 1, ())
    hb = hilbert_basis_box(m)
    gens = [
        GeneratorInfo(h, "primary", f"s{_nonzero_pos(h) + 1}", f"o(w{_nonzero_pos(h) + 1})")
        for h in hb
    ]
    unit_vec = (0,) * (n - 1)
    gens.append(GeneratorInfo(unit_vec, "unit", f"s{n}", "x^(1,...,1)"))
    return InvariantReport(
        rtype=rs.rtype,
        monoid=m,
        hilbert_basis=hb,
        primaries=tuple(hb),
        secondaries=(),
        free_coordinates=tuple(range(n - 1)),
        residual=None,
        generator_count=n,
        polynomial=True,
        generators=tuple(gens),
        laurent_unit=f"s{n}^(+-1)",
        structure="mixed Laurent polynomial ring Z[s_1..s_(n-1), s_n, 1/s_n]",
        class_group_note="0",
    )


def expected_generators_C(n: int) -> tuple[IntVec, ...]:
    """Theorem-side generator list for the C family: z_i e_i and odd pairs."""
    gens = []
    for i in range(1, n + 1):
        z = 2 if i % 2 else 1
        gens.append(tuple(z if k == i else 0 for k in range(1, n + 1)))
    gens.extend(v for v, _ in _odd_pair_names(n))
    return graded_lex_sorted(gens)


def expected_generator_count_C(n: int) -> int:
    k = (n + 1) // 2
    return n + k * (k - 1) // 2


def expected_generators_D(n: int) -> tuple[IntVec, ...]:
    """Theorem-side generator list for the D family."""
    gens = []
    for i in range(1, n - 1):
        z = 2 if i % 2 else 1
        gens.append(tuple(z if k == i else 0 for k in range(1, n + 1)))
    zlast = 2 if n % 2 == 0 else 4
    gens.append(tuple(zlast if k == n - 1 else 0 for k in range(1, n + 1)))
    gens.append(tuple(zlast if k == n else 0 for k in range(1, n + 1)))
    gens.extend(v for v, _ in _d_secondary_names(n))
    return graded_lex_sorted(gens)


def expected_generator_count_D(n: int) -> int:
    if n % 2 == 0:
        return (n * n + 6 * n) // 8
    return (n * n + 12 * n + 3) // 8


def e6_residual_hilbert_basis() -> tuple[IntVec, ...]:
    """The twelve residual generators of the E6 monoid, graded-lex order."""
    raw = [
        (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3),
        (1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 0, 1, 1),
        (1, 0, 2, 0), (0, 1, 0, 2), (0, 2, 0, 1), (2, 0, 1, 0),
    ]
    return graded_lex_sorted(raw)


def e7_residual_hilbert_basis() -> tuple[IntVec, ...]:
    """Residual generators on the three constrained E7 coordinates."""
    raw = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
    return graded_lex_sorted(raw)


def veronese_generators(d: int) -> tuple[IntVec, ...]:
    """Generators of the second Veronese of a polynomial ring in d variables: x_i^2 and x_i x_j."""
    if d < 1:
        raise InvalidRank("need d >= 1")
    squares = tuple(tuple(2 if k == i else 0 for k in range(d)) for i in range(d))
    products = tuple(
        tuple(1 if k in (i, j) else 0 for k in range(d)) for i, j in combinations(range(d), 2)
    )
    return graded_lex_sorted(squares + products)


def fundamental_orbit_sums(rs: RootSystem, m: IntVec, orbit_cap: int, sums: dict[int, LaurentPoly]) -> None:
    """Add to sums, by i and in order, each fundamental orbit sum o(w_i) with m_i != 0 that it lacks.

    Raises OrbitCapExceeded when an orbit passes orbit_cap; the sums made before it stay.
    """
    from .laurent import alpha_ring, orbit_sum_weight_coords  # only expansions load the Laurent layer

    ring = alpha_ring(rs)
    for i, e in enumerate(m):
        if e and i not in sums:
            sums[i] = orbit_sum_weight_coords(rs, tuple(1 if j == i else 0 for j in range(rs.rank)), ring, orbit_cap)


def omega_expand(
    rs: RootSystem, m: IntVec, orbit_cap: int = DEFAULT_ORBIT_CAP, orbit_sums: dict[int, LaurentPoly] | None = None
) -> LaurentPoly:
    """Laurent expansion of the generator with weight-coordinate vector m.

    orbit_sums, if given, holds the fundamental orbit sums o(w_i) by i: a sum
    missing from it is computed and added, so calls that share it compute each once.
    """
    from .laurent import LaurentPoly, alpha_ring

    sums = {} if orbit_sums is None else orbit_sums
    fundamental_orbit_sums(rs, m, orbit_cap, sums)
    out = None
    for i, e in enumerate(m):
        if e:
            power = sums[i] ** e
            out = power if out is None else out * power
    return LaurentPoly.constant(alpha_ring(rs), 1) if out is None else out
