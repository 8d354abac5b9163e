"""Divisor class groups: reflection route, weight quotients, toric cross-checks."""

from __future__ import annotations

import warnings

from rootinv.classgroup import (
    AbelianGroupStructure,
    class_group,
    class_group_cross_check,
    weight_quotient,
)
from rootinv.rootsystem import RootSystemType, build


def _rs(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build(RootSystemType.parse(name))


def test_abelian_group_structure():
    g = AbelianGroupStructure((2, 4))
    assert g.order == 8
    assert g.name == "Z/2 x Z/4"
    assert g.invariant_factors
    t = AbelianGroupStructure(())
    assert t.order == 1 and not t.invariant_factors and t.name == "0"


def test_weight_quotients():
    assert weight_quotient(_rs("A3")).name == "Z/4"
    assert weight_quotient(_rs("D6")).name == "Z/2 x Z/2"
    assert weight_quotient(_rs("E7")).name == "Z/2"
    assert weight_quotient(_rs("E8")).name == "0"
    # B has a nontrivial weight quotient, but sign-change reflections
    # diagonalize, so the class group collapses to 0.
    assert weight_quotient(_rs("B5")).name == "Z/2"
    assert class_group(_rs("B5")).name == "0"


EXPECTED = {
    "A1": "0",
    "A2": "Z/3",
    "A3": "Z/4",
    "A5": "Z/6",
    "B2": "0",
    "B3": "0",
    "B6": "0",
    "C2": "0",
    "C3": "Z/2",
    "C6": "Z/2",
    "D4": "Z/2 x Z/2",
    "D5": "Z/4",
    "D6": "Z/2 x Z/2",
    "E6": "Z/3",
    "G2": "0",
    "F4": "0",
}


def test_class_group_table_with_cross_checks():
    for name, want in EXPECTED.items():
        res = class_group_cross_check(_rs(name))
        assert res.name == want, name


def test_diagonalizable_rank_flags():
    assert class_group(_rs("B4")).diagonalizable_rank == 4
    assert class_group(_rs("A4")).diagonalizable_rank == 0
    assert class_group(_rs("C2")).diagonalizable_rank > 0
    assert class_group(_rs("C3")).diagonalizable_rank == 0


def test_fallback_agrees_with_scan():
    for name in ("B3", "B4", "B5", "C3", "D4"):
        rs = _rs(name)
        scan = class_group(rs)
        forced = class_group(rs, cap=10)
        assert scan.method == "exhaustive-scan"
        assert forced.method != "exhaustive-scan"
        assert scan.name == forced.name, name
        assert (scan.diagonalizable_rank == 0) == (forced.diagonalizable_rank == 0), name


def test_cross_check_is_sound():
    # the cross-check must raise rather than return when given inconsistent data
    res = class_group_cross_check(_rs("D5"))
    assert res.group.invariant_factors == (4,)
    assert res.name == "Z/4"


def test_result_fields():
    res = class_group(_rs("E6"))
    assert isinstance(res.group, AbelianGroupStructure)
    assert res.diagonalizable_rank == 0
    assert res.method in ("exhaustive-scan", "family-fallback")
    assert res.name == res.group.name


def test_root_route_above_the_cap():
    # above the enumeration cap the root reflections alone decide, for every type
    want = {"B7": 7, "B8": 8, "C8": 0, "D8": 0, "E6": 0, "E7": 0, "E8": 0}
    for name, rank in want.items():
        res = class_group(_rs(name), cap=1000)
        assert res.diagonalizable_rank == rank, name
        assert res.method == "family-fallback", name
    assert class_group(_rs("E7"), cap=1000).name == "Z/2"
    assert weight_quotient(_rs("E7")).name == "Z/2"
