"""Binomial relation regeneration, fixtures, parsing, and verification."""

from __future__ import annotations

from functools import reduce
from operator import mul

import pytest

from rootinv.errors import DimensionMismatch, FiberCapExceeded
from rootinv.relations import (
    Binomial,
    RelationFixture,
    load_fixture,
    parse_binomial,
    parse_fixture,
    relations_bounded,
    relations_equivalent,
    verify_relation,
)
from rootinv.reports import omega_expand, report_A, report_C
from rootinv.rootsystem import build


def _verify_relation_laurent(rs, basis, rel: Binomial) -> bool:
    """Reference: both sides expand to the same Laurent polynomial (exact arithmetic)."""

    def side(v):
        return reduce(mul, (omega_expand(rs, basis[k]) ** e for k, e in enumerate(v) if e))

    return side(rel.plus) == side(rel.minus)


def test_binomial_validation():
    with pytest.raises(DimensionMismatch):
        Binomial((1, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        Binomial((1, 0), (0, 0))
    with pytest.raises(ValueError):
        Binomial((1, 1), (0, 1))


def test_binomial_canonical_and_degree():
    b = Binomial((1, 0, 0), (0, 2, 1)).canonical()
    assert b.plus == (0, 2, 1) and b.minus == (1, 0, 0)
    assert b.degree() == 3
    # equal degrees: lexicographically larger side goes first
    c = Binomial((0, 1, 1), (2, 0, 0)).canonical()
    assert c.plus == (2, 0, 0)


def test_binomial_format_and_parse_roundtrip():
    b = Binomial((2, 0, 1, 0), (0, 4, 0, 0))
    assert b.format() == "g1^2·g3 = g2^4"
    assert parse_binomial(b.format(), 4) == b.canonical()
    assert parse_binomial("g1^2*g3 = g2^4", 4) == b.canonical()
    assert parse_binomial("g1 = g2", 2) == Binomial((1, 0), (0, 1))


def test_parse_binomial_errors():
    with pytest.raises(ValueError):
        parse_binomial("g1^2·g3", 4)
    with pytest.raises(ValueError):
        parse_binomial("g9 = g1", 4)
    with pytest.raises(ValueError):
        parse_binomial("h1 = g2", 4)


def test_verify_relation():
    basis = ((1, 1), (0, 3), (3, 0))
    good = parse_binomial("g1^3 = g2·g3", 3)
    bad = parse_binomial("g2 = g3", 3)
    assert verify_relation(basis, good)
    assert not verify_relation(basis, bad)
    with pytest.raises(DimensionMismatch):
        verify_relation(basis, parse_binomial("g1 = g2", 2))


def test_verify_relation_laurent_a2():
    rs = build("A", 2)
    basis = tuple(report_A(3).hilbert_basis)
    fix = load_fixture("a2")
    for rel in fix.relabeled(basis):
        assert verify_relation(basis, rel)
        assert _verify_relation_laurent(rs, basis, rel)
    assert not _verify_relation_laurent(rs, basis, parse_binomial("g2 = g3", 3))


def test_verify_relation_laurent_a3_full_fixture():
    rs = build("A", 3)
    fix = load_fixture("a3_magma")
    for rel in fix.relations:
        assert verify_relation(fix.generators, rel)
        assert _verify_relation_laurent(rs, fix.generators, rel)


def test_verify_relation_laurent_c3():
    rs = build("C", 3)
    basis = tuple(report_C(3).hilbert_basis)
    k = basis.index((1, 0, 1))
    i = basis.index((2, 0, 0))
    j = basis.index((0, 0, 2))
    plus = tuple(2 if t == k else 0 for t in range(4))
    minus = tuple(1 if t in (i, j) else 0 for t in range(4))
    rel = Binomial(plus, minus)
    assert verify_relation(basis, rel)
    assert _verify_relation_laurent(rs, basis, rel)


def test_relations_bounded_a2_exact():
    basis = tuple(report_A(3).hilbert_basis)
    rels = relations_bounded(basis, 3)
    assert len(rels) == 1
    assert rels[0].format() == "g1^3 = g2·g3"


def test_relations_bounded_a3_count_and_fixture_equivalence():
    basis = tuple(report_A(4).hilbert_basis)
    rels = relations_bounded(basis, 4)
    assert len(rels) == 6
    fix = load_fixture("a3_magma").relabeled(basis)
    assert relations_equivalent(rels, fix, basis, 4)
    # dropping any single regenerated relation breaks some fiber
    for k in range(len(rels)):
        reduced = rels[:k] + rels[k + 1 :]
        assert not relations_equivalent(reduced, rels, basis, 4), k
    assert not relations_equivalent((), rels, basis, 4)


def test_relations_equivalent_rejects_a_wrong_arity():
    basis = tuple(report_A(4).hilbert_basis)
    rels = relations_bounded(basis, 4)
    short = tuple(Binomial(r.plus[:-1], r.minus[:-1]) for r in rels)  # one generator too few
    for first, second in ((rels, short), (short, rels), (short, short)):
        with pytest.raises(DimensionMismatch, match="relation arity != basis size"):
            relations_equivalent(first, second, basis, 4)


def test_relabeled_rejects_wrong_generator_set():
    fix = load_fixture("a2")
    with pytest.raises(DimensionMismatch):
        fix.relabeled(((1, 1), (0, 3), (2, 0)))


def test_load_fixtures():
    for name, ngens, nrels in [("a2", 3, 1), ("a3_magma", 6, 6), ("e6_magma", 12, 35)]:
        fix = load_fixture(name)
        assert len(fix.generators) == ngens
        assert len(fix.relations) == nrels
        for rel in fix.relations:
            assert verify_relation(fix.generators, rel), (name, rel.format())


def test_fiber_cap():
    basis = tuple(report_A(4).hilbert_basis)
    with pytest.raises(FiberCapExceeded, match="fiber cap is 10; lower --degree-bound"):
        relations_bounded(basis, 4, fiber_cap=10)


def test_parse_fixture_errors():
    with pytest.raises(ValueError):
        parse_fixture("x", "g1 = g2\n")
    with pytest.raises(ValueError):
        parse_fixture("x", "# only a comment\n")
    fix = parse_fixture("x", "# c\ngenerators: 2,0 0,2 1,1\ng3^2 = g1·g2\n")
    assert isinstance(fix, RelationFixture)
    assert fix.generators == ((2, 0), (0, 2), (1, 1))
    assert fix.relations[0].format() == "g1·g2 = g3^2"
