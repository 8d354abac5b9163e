"""Per-family invariant reports: generators, decompositions, structure notes."""

from __future__ import annotations

from contextlib import nullcontext

import pytest

from rootinv import reports
from rootinv.errors import InvalidRank
from rootinv.intlinalg import smith_normal_form
from rootinv.laurent import is_invariant
from rootinv.monoids import Congruence, CongruenceMonoid, box_elements, hilbert_basis_box, hironaka_cells
from rootinv.reports import (
    e6_residual_hilbert_basis,
    e7_residual_hilbert_basis,
    expected_generator_count_C,
    expected_generator_count_D,
    expected_generators_C,
    expected_generators_D,
    family_monoid,
    omega_description,
    omega_expand,
    report,
    report_A,
    report_B,
    report_B_sym,
    report_C,
    report_D,
    report_E6,
    report_E7,
    report_selfdual,
    veronese_generators,
)
from rootinv.rootsystem import RootSystemType, build


def _monoid_from_weight_lattice(rs) -> CongruenceMonoid:
    """Reference: the monoid from a Smith form U A V = D of the Cartan matrix A.

    Row i of U with d_i > 1 gives the congruence U_i m = 0 mod d_i.
    """
    sf = smith_normal_form(rs.cartan)
    congs = [Congruence(tuple(sf.U.rows[i]), d) for i, d in enumerate(sf.diagonal) if d > 1]
    return CongruenceMonoid(rs.rank, tuple(congs))


def _verify_omega(rs, rep, degree_bound=None) -> bool:
    """Reference: every basis element up to the bound expands to an integral, W-invariant polynomial."""
    for h in rep.hilbert_basis:
        if degree_bound is not None and sum(h) > degree_bound:
            continue
        p = omega_expand(rs, h)
        if any(x % p.ring.scale for e, _ in p.terms() for x in e) or not is_invariant(rs, p):
            return False
    return True


def test_report_a1_is_polynomial():
    rep = report_A(2)
    assert set(rep.hilbert_basis) == {(2,)}
    assert rep.polynomial
    assert rep.class_group_note == "0"
    assert rep.generators[0].omega == "o(w1)^2"


def test_report_a2():
    rep = report_A(3)
    assert set(rep.hilbert_basis) == {(1, 1), (3, 0), (0, 3)}
    assert set(rep.primaries) == {(3, 0), (0, 3)}
    assert set(rep.secondaries) == {(1, 1)}
    assert not rep.polynomial
    assert rep.class_group_note == "Z/3"
    assert set(rep.cells) == {(0, 0), (1, 1), (2, 2)}


def test_report_builds_the_cells_on_first_read(monkeypatch):
    calls = []

    def counted(m, box_cap):
        calls.append(box_cap)
        return hironaka_cells(m, box_cap)

    monkeypatch.setattr(reports, "hironaka_cells", counted)
    rep = report(build("C", 4), box_cap=500)
    assert calls == []
    assert rep.cells == box_elements(rep.monoid) and rep.cells is rep.cells
    assert calls == [500]
    assert report_B_sym(3).cells == ((0, 0),)


def test_report_a3_matches_presentation():
    rep = report_A(4)
    assert set(rep.hilbert_basis) == {
        (4, 0, 0),
        (0, 2, 0),
        (0, 0, 4),
        (2, 1, 0),
        (1, 0, 1),
        (0, 1, 2),
    }
    assert rep.generator_count == 6
    assert rep.class_group_note == "Z/4"


def test_report_b_polynomial():
    for n in (2, 3, 5):
        rep = report_B(n)
        assert rep.polynomial
        assert rep.generator_count == n
        want = {tuple(2 if k == n - 1 else 0 for k in range(n))}
        want |= {tuple(1 if k == i else 0 for k in range(n)) for i in range(n - 1)}
        assert set(rep.hilbert_basis) == want
        assert rep.class_group_note == "0"


def test_report_c_counts_and_names():
    rep = report_C(4)
    assert rep.generator_count == expected_generator_count_C(4) == 5
    names = {g.name for g in rep.generators}
    assert "g1_3" in names
    rep6 = report_C(6)
    assert rep6.generator_count == 9
    assert {g.name for g in rep6.generators if g.role == "secondary"} == {
        "g1_3",
        "g1_5",
        "g3_5",
    }
    assert set(rep6.hilbert_basis) == set(expected_generators_C(6))


def test_report_d_counts():
    assert report_D(4).generator_count == expected_generator_count_D(4) == 5
    assert report_D(5).generator_count == expected_generator_count_D(5) == 11
    assert report_D(6).generator_count == expected_generator_count_D(6) == 9
    for n in (4, 5, 6, 7):
        assert set(report_D(n).hilbert_basis) == set(expected_generators_D(n)), n


def test_report_d_class_notes():
    assert report_D(4).class_group_note == "Z/2 x Z/2"
    assert report_D(5).class_group_note == "Z/4"


def test_report_e6():
    rep = report_E6()
    assert rep.generator_count == 14  # 2 free + 12 residual
    assert rep.free_coordinates == (1, 3)
    assert rep.residual is not None
    residual_basis = hilbert_basis_box(rep.residual)
    assert set(residual_basis) == set(e6_residual_hilbert_basis())
    assert rep.class_group_note == "Z/3"


def test_report_e7():
    rep = report_E7()
    assert rep.generator_count == 10
    assert rep.free_coordinates == (0, 2, 3, 5)
    residual_basis = hilbert_basis_box(rep.residual)
    assert set(residual_basis) == set(e7_residual_hilbert_basis())
    assert rep.class_group_note == "Z/2"


def test_report_selfdual():
    for name in ("G2", "F4", "E8"):
        rep = report_selfdual(name)
        assert rep.polynomial
        assert rep.generator_count == rep.monoid.dim
        assert rep.class_group_note == "0"
    with pytest.raises(InvalidRank):
        report_selfdual("E6")


def test_family_monoid_matches_smith_derivation():
    for name in ["A2", "A4", "B3", "B5", "C3", "C5", "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2"]:
        rs = build(RootSystemType.parse(name))
        m1 = family_monoid(rs)
        m2 = _monoid_from_weight_lattice(rs)
        assert m1.dim == m2.dim
        assert m1.generator_orders() == m2.generator_orders(), name
        assert m1.lattice_index() == m2.lattice_index(), name
        # same sublattice: each route's box points satisfy the other's congruences
        assert set(box_elements(m1)) == set(box_elements(m2)), name


def test_verify_omega_small_types():
    for name, bound in [("A2", None), ("A3", None), ("B3", None), ("C3", None), ("D4", 3), ("A5", 4)]:
        rs = build(RootSystemType.parse(name))
        assert _verify_omega(rs, report(rs), bound), name


def test_omega_expand_multiplicativity():
    rs = build("A", 3)
    a = omega_expand(rs, (1, 1, 0))
    b = omega_expand(rs, (1, 0, 1))
    assert a * b == omega_expand(rs, (2, 1, 1))


def test_veronese_structure():
    assert veronese_generators(3) == ((0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0))
    assert veronese_generators(1) == ((2,),)
    with pytest.raises(InvalidRank):
        veronese_generators(0)


def test_report_b_sym():
    rep = report_B_sym(3)
    assert rep.generator_count == 3
    assert rep.laurent_unit == "s3^(+-1)"
    names = {g.name for g in rep.generators}
    assert names == {"s1", "s2", "s3"}
    assert rep.generators[-1].role == "unit"
    assert rep.generators[-1].name == "s3"
    assert rep.monoid.dim == 2 and not rep.monoid.congruences


def test_omega_description():
    assert omega_description((0, 0)) == "1"
    assert omega_description((2, 0, 1)) == "o(w1)^2*o(w3)"


_SHIM_CASES = (
    [(f"A{r}", lambda r=r: report_A(r + 1)) for r in range(1, 8)]
    + [(f"B{n}", lambda n=n: report_B(n)) for n in range(2, 7)]
    + [(f"C{n}", lambda n=n: report_C(n)) for n in range(2, 7)]
    + [(f"D{n}", lambda n=n: report_D(n)) for n in range(4, 8)]
    + [("E6", report_E6), ("E7", report_E7)]
    + [(name, lambda name=name: report_selfdual(name)) for name in ("E8", "F4", "G2")]
)


@pytest.mark.parametrize("name,shim", _SHIM_CASES, ids=[name for name, _ in _SHIM_CASES])
def test_report_agrees_with_the_named_entry_points(name, shim):
    with pytest.warns(UserWarning, match="C_2 is isomorphic to B_2") if name == "C2" else nullcontext():
        assert report(build(name)) == shim()


def test_public_names_keep_every_report_entry_point():
    import rootinv

    names = {
        "AbelianGroupStructure", "Binomial", "Congruence", "CongruenceMonoid", "HilbertBasis",
        "IntMatrix", "InvariantReport", "KernelInstance", "LaurentPoly", "RootSystem",
        "RootSystemType", "RootinvError", "WeylElement", "build", "class_group",
        "class_group_cross_check", "cokernel_invariant_factors", "enumerate_group",
        "family_monoid", "group_order_bfs", "hilbert_basis_box", "hilbert_basis_kernel",
        "hironaka_cells", "integer_kernel", "is_invariant", "orbit", "orbit_sum",
        "orbit_sum_weight_coords", "reflections", "relations_bounded", "relations_equivalent",
        "report", "report_A", "report_B", "report_C", "report_D", "report_E6", "report_E7",
        "report_selfdual", "smith_normal_form", "verify_relation", "weight_quotient",
        "__version__",
    }
    assert names <= set(rootinv.__all__)
    assert all(hasattr(rootinv, name) for name in names)
