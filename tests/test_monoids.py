"""Congruence monoids: Hilbert bases by two routes, cells, class groups."""

from __future__ import annotations

import re
import tracemalloc

import pytest

from rootinv import monoids
from rootinv.errors import BoxCapExceeded, DimensionMismatch, FrontierCapExceeded
from rootinv.monoids import (
    DEFAULT_BOX_CAP,
    Congruence,
    CongruenceMonoid,
    KernelInstance,
    box_elements,
    graded_lex_sorted,
    hilbert_basis_box,
    hilbert_basis_kernel,
    hironaka_cells,
    parse_instance,
    split_free_part,
    toric_class_group,
    _box_mask,
    verify_cell_partition,
)
from rootinv.reports import family_monoid
from rootinv.rootsystem import build


def a_monoid(n: int) -> CongruenceMonoid:
    """Dominant lattice points of the rank-(n-1) simply-laced lattice."""
    return CongruenceMonoid(n - 1, (Congruence(tuple(range(1, n)), n),))


def _member_of_generated(v, gens) -> bool:
    """Reference: is v a Z+-combination of gens?  Backtracking with memo, fine at test scale."""
    target = tuple(v)
    gs = [tuple(g) for g in gens if all(a <= b for a, b in zip(g, target))]
    seen = set()

    def rec(t) -> bool:
        if not any(t):
            return True
        if t in seen:
            return False
        seen.add(t)
        return any(
            all(a <= b for a, b in zip(g, t)) and rec(tuple(b - a for a, b in zip(g, t))) for g in gs
        )

    return rec(target)


def kernel_route(m: CongruenceMonoid) -> set:
    """Lift each congruence to an exact kernel condition with one slack column."""
    k = len(m.congruences)
    rows = []
    for idx, c in enumerate(m.congruences):
        slack = tuple(-c.modulus if j == idx else 0 for j in range(k))
        rows.append(tuple(c.coeffs) + slack)
    return {v[: m.dim] for v in hilbert_basis_kernel(rows)}


def test_kernel_frozen_instances():
    assert set(hilbert_basis_kernel(KernelInstance((1, 2, -3)))) == {
        (1, 1, 1),
        (3, 0, 1),
        (0, 3, 2),
    }
    assert len(hilbert_basis_kernel(KernelInstance((1, 2, 3, -4)))) == 6
    assert len(hilbert_basis_kernel(KernelInstance((1, 2, 1, 2, -3)))) == 12


def test_kernel_trivial_swap():
    assert set(hilbert_basis_kernel(KernelInstance((1, -1)))) == {(1, 1)}


def test_box_route_a2():
    m = a_monoid(3)
    assert m.generator_orders() == (3, 3)
    hb = hilbert_basis_box(m)
    assert set(hb) == {(1, 1), (3, 0), (0, 3)}
    assert hb.elements == graded_lex_sorted([(1, 1), (3, 0), (0, 3)])


def test_box_and_kernel_agree_on_a_family():
    for n in range(3, 7):
        m = a_monoid(n)
        assert set(hilbert_basis_box(m)) == kernel_route(m)


def test_box_and_kernel_agree_on_multicongruence():
    for name in ["D4", "D5", "C4", "E6"]:
        rs = build(name[0], int(name[1]))
        m = family_monoid(rs)
        assert set(hilbert_basis_box(m)) == kernel_route(m), name


def test_minimality_of_basis():
    for make in (lambda: a_monoid(4), lambda: family_monoid(build("D", 4))):
        hb = list(hilbert_basis_box(make()))
        for i, h in enumerate(hb):
            others = hb[:i] + hb[i + 1 :]
            assert not _member_of_generated(h, others), h


def test_every_small_element_is_generated():
    for rs_name, bound in [("A3", 6), ("C3", 6)]:
        m = family_monoid(build(rs_name[0], int(rs_name[1])))
        hb = list(hilbert_basis_box(m))
        from itertools import product

        for v in product(range(bound + 1), repeat=m.dim):
            if m.contains(v) and any(v):
                assert _member_of_generated(v, hb), v


def test_split_free_part():
    m = family_monoid(build("E", 6))
    free, residual = split_free_part(m)
    assert free == (1, 3)
    assert residual.dim == 4
    assert residual.congruences[0].coeffs == (1, 2, 1, 2)
    assert residual.congruences[0].modulus == 3

    m7 = family_monoid(build("E", 7))
    free7, res7 = split_free_part(m7)
    assert free7 == (0, 2, 3, 5)
    assert res7.congruences[0].coeffs == (1, 1, 1)
    assert res7.congruences[0].modulus == 2

    mc = family_monoid(build("C", 4))
    freec, resc = split_free_part(mc)
    assert freec == (1, 3)
    assert resc.congruences[0].coeffs == (1, 1)


def test_hironaka_cells_a2_and_c4():
    assert set(hironaka_cells(a_monoid(3))) == {(0, 0), (1, 1), (2, 2)}
    c4 = family_monoid(build("C", 4))
    assert set(hironaka_cells(c4)) == {(0, 0, 0, 0), (1, 0, 1, 0)}


def test_cell_count_times_index():
    for name in ["A2", "A3", "C3", "D4", "D5", "E6"]:
        rs = build(name[0], int(name[1]))
        m = family_monoid(rs)
        cells = hironaka_cells(m)
        z = m.generator_orders()
        vol = 1
        for zi in z:
            vol *= zi
        assert len(cells) * m.lattice_index() == vol, name


def test_cell_of():
    # a monoid point lies in the translate of the cell v mod z, for the generator orders z
    m = a_monoid(3)
    cells = hironaka_cells(m)
    for v, cell in [((1, 1), (1, 1)), ((4, 1), (1, 1)), ((3, 0), (0, 0)), ((5, 2), (2, 2))]:
        assert m.contains(v)
        assert tuple(x % zi for x, zi in zip(v, m.generator_orders())) == cell
        assert cell in cells
    assert not m.contains((1, 0))


def test_verify_cell_partition_small():
    assert verify_cell_partition(a_monoid(3), 8) > 0
    assert verify_cell_partition(family_monoid(build("D", 4)), 6) > 0


def test_verify_cell_partition_folds_the_grid_in_bounded_memory():
    # C6 at bound 10: 11^6 = 1,771,561 grid points; (points x 6) int64 arrays of the
    # 886,446 monoid points among them need about 96 MB.
    m = family_monoid(build("C", 6))
    tracemalloc.start()
    try:
        checked = verify_cell_partition(m, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checked == 886_446
    assert peak < 32 * 2**20


def test_box_mask_stores_a_residue_in_the_smallest_type_that_holds_it():
    # C6 at bound 10: in int64 the residues of the 11^6-point grid took 14 MB
    m = family_monoid(build("C", 6))
    tracemalloc.start()
    try:
        mask = _box_mask(m, (11,) * 6, DEFAULT_BOX_CAP, "grid", "box_cap")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert int(mask.sum()) == 886_446
    assert peak < 4 * 11**6
    # 2 * 301 needs two bytes
    m = CongruenceMonoid(2, (Congruence((7, 300), 301),))
    got = _box_mask(m, (301, 40), DEFAULT_BOX_CAP, "box", "--box-cap")
    assert got.tolist() == [[(7 * x + 300 * y) % 301 == 0 for y in range(40)] for x in range(301)]


def test_box_mask_shifts_axis_0_by_its_start():
    m = CongruenceMonoid(2, (Congruence((7, 300), 301),))
    whole = _box_mask(m, (301, 40), DEFAULT_BOX_CAP, "box", "--box-cap")
    for start, rows in [(5, 4), (299, 2), (3, 1), (0, 1)]:
        got = _box_mask(m, (rows, 40), DEFAULT_BOX_CAP, "box", "--box-cap", start)
        assert got.reshape(rows, 40).tolist() == whole[start : start + rows].tolist()


def test_verify_cell_partition_checks_the_grid_cap_first():
    # 11^4 = 14641 grid points; the box of D4 itself has only 16
    message = (
        "cell-partition grid has 14641 points, box cap is 1000;"
        " raise it with verify_cell_partition's box_cap argument"
    )
    with pytest.raises(BoxCapExceeded, match=f"^{re.escape(message)}$"):
        verify_cell_partition(family_monoid(build("D", 4)), 10, box_cap=1000)


@pytest.mark.parametrize(
    "cells,message",
    [
        (((0, 0), (2, 2)), r"residue \(1, 1\) is not a cell"),
        (((0, 0), (0, 1), (1, 1), (2, 2)), "some cell received no element"),
    ],
)
def test_verify_cell_partition_rejects_wrong_cells(monkeypatch, cells, message):
    # the cells of A2 are (0, 0), (1, 1), (2, 2)
    monkeypatch.setattr("rootinv.monoids.hironaka_cells", lambda m, box_cap: cells)
    with pytest.raises(AssertionError, match=message):
        verify_cell_partition(a_monoid(3), 8)


@pytest.mark.parametrize("slab", [1, 2, 60])
def test_verify_cell_partition_is_the_same_in_slabs(monkeypatch, slab):
    # slabs of one period of axis 0 (z_0 = 3 for A2, 2 for D4 and C3, so D4's last slab is
    # one row), and at 60 points A2's 9-point rows go in slabs of 6 rows and then 3
    cases = [(a_monoid(3), 8), (family_monoid(build("D", 4)), 6), (family_monoid(build("C", 3)), 5)]
    want = [verify_cell_partition(m, bound) for m, bound in cases]
    monkeypatch.setattr(monoids, "_SLAB", slab)
    assert [verify_cell_partition(m, bound) for m, bound in cases] == want
    monkeypatch.setattr("rootinv.monoids.hironaka_cells", lambda m, box_cap: ((0, 0), (2, 2)))
    with pytest.raises(AssertionError, match=r"^residue \(1, 1\) is not a cell$"):
        verify_cell_partition(a_monoid(3), 8)


def test_toric_class_groups():
    cases = {
        "A1": (),
        "A2": (3,),
        "A3": (4,),
        "B3": (),
        "C3": (2,),
        "C4": (2,),
        "D4": (2, 2),
        "D5": (4,),
        "E6": (3,),
        "E7": (2,),
    }
    for name, factors in cases.items():
        rs = build(name[0], int(name[1]))
        assert toric_class_group(family_monoid(rs)) == factors, name


def test_congruence_normalization_and_contains():
    c = Congruence((5, -1, 3), 3)
    assert c.coeffs == (2, 2, 0)
    m = CongruenceMonoid(3, (c,))
    assert m.contains((1, 2, 5))
    assert not m.contains((1, 0, 0))
    with pytest.raises(DimensionMismatch):
        m.contains((1, 0))


def test_generator_orders_and_lattice_index():
    m = family_monoid(build("D", 5))
    assert m.generator_orders() == (2, 1, 2, 4, 4)
    assert m.lattice_index() == 4


def test_kernel_instance_validation():
    with pytest.raises(ValueError):
        KernelInstance((1, 2, 3))
    with pytest.raises(ValueError):
        KernelInstance((-1, -2))


def test_parse_instance_round_trip():
    m = family_monoid(build("D", 4))
    again = parse_instance("4\n0 0 1 1 mod 2\n1 0 1 0 mod 2\n")
    assert again == m

    ker = parse_instance("# comment\nker: 1 2 -3\n")
    assert isinstance(ker, KernelInstance)
    assert ker.coeffs == (1, 2, -3)

    with pytest.raises(ValueError):
        parse_instance("")


def test_parse_instance_input_checks():
    with pytest.raises(ValueError, match="negative dimension"):
        parse_instance("-1\n")
    assert parse_instance("0\n") == CongruenceMonoid(0, ())
    point = CongruenceMonoid(0, (Congruence((), 2),))  # its congruence is the line " mod 2"
    assert parse_instance("0\n mod 2\n") == point
    indented = parse_instance("2\n  # note\n\t# another\n1 1 mod 2\n")
    assert indented == CongruenceMonoid(2, (Congruence((1, 1), 2),))
    with pytest.raises(ValueError, match="single line"):
        parse_instance("ker: 1 -1\n3\n1 1 x mod 2\n")
    assert parse_instance("ker: 1 -1\n# trailing comment\n") == KernelInstance((1, -1))


def test_box_cap():
    # 10^8 box points: the cap must be checked before the mask is allocated
    big = CongruenceMonoid(4, (Congruence((1, 1, 1, 1), 100),))
    for scan in (box_elements, hilbert_basis_box, hironaka_cells):
        tracemalloc.start()
        try:
            with pytest.raises(BoxCapExceeded, match="box has 100000000 points, box cap is 1000"):
                scan(big, box_cap=1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, scan.__name__


def test_frontier_cap():
    with pytest.raises(FrontierCapExceeded):
        hilbert_basis_kernel(KernelInstance((13, 17, -23, -29)), frontier_cap=5)


def test_kernel_dominance_tests_are_blocked():
    # the final sweep alone forms 366^2 (point, basis element) pairs, two blocks' worth
    inst = KernelInstance((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, -12))
    tracemalloc.start()
    try:
        basis = hilbert_basis_kernel(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(basis) ** 2 > monoids._BLOCK
    assert peak < 2**21


def test_graded_lex_order():
    out = graded_lex_sorted([(3, 0), (0, 3), (1, 1), (0, 0)])
    assert out == ((0, 0), (1, 1), (0, 3), (3, 0))
