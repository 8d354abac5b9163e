"""Root system construction: root counts, Cartan data, fundamental weights."""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import sympy

from rootinv import cli, rootsystem
from rootinv.classgroup import class_group
from rootinv.errors import DimensionMismatch, InvalidRank
from rootinv.intlinalg import cokernel_invariant_factors
from rootinv.reports import omega_expand, report
from rootinv.rootsystem import RootSystemType, build, dominant, orbit_levels
from rootinv.weyl import orbit

ALL_SMALL = (
    [("A", r) for r in range(1, 8)]
    + [("B", n) for n in range(2, 8)]
    + [("C", n) for n in range(2, 8)]
    + [("D", n) for n in range(3, 8)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

ALL_TYPES = (
    [("A", r) for r in range(1, 10)]
    + [("B", n) for n in range(2, 10)]
    + [("C", n) for n in range(2, 10)]
    + [("D", n) for n in range(3, 10)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)

# closed formulas, independent of how the library finds roots and |W|
ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}
WEYL_ORDER = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def _build(fam, rank):
    with pytest.warns(UserWarning) if (fam, rank) in (("C", 2), ("D", 3)) else _nullcontext():
        return build(RootSystemType(fam, rank))


class _nullcontext:
    def __enter__(self):
        return self

    def __exit__(self, *a):
        return False


def test_root_counts():
    expected = {
        ("A", 2): 6,
        ("A", 3): 12,
        ("B", 3): 18,
        ("C", 4): 32,
        ("D", 4): 24,
        ("D", 5): 40,
        ("E", 6): 72,
        ("E", 7): 126,
        ("E", 8): 240,
        ("F", 4): 48,
        ("G", 2): 12,
    }
    for (fam, rank), count in expected.items():
        rs = _build(fam, rank)
        assert len(rs.roots) == count, (fam, rank)
    for fam, rank in ALL_TYPES:
        rs = _build(fam, rank)
        assert len(rs.roots) == len(set(rs.roots)) == ROOT_COUNT[fam](rank), (fam, rank)


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_roots_are_integral_and_of_simple_root_lengths(fam, rank):
    rs = _build(fam, rank)
    lengths = {sum(x * x for x in a) for a in rs.simple_roots}
    for beta in rs.roots:
        assert all(p.denominator == 1 for p in rs.pairing_with_simple(beta)), beta
        assert sum(x * x for x in beta) in lengths, beta


def test_cartan_determinants(capsys):
    dets = {
        ("A", 4): 5,
        ("B", 5): 2,
        ("C", 3): 2,
        ("D", 6): 4,
        ("E", 6): 3,
        ("E", 7): 2,
        ("E", 8): 1,
        ("F", 4): 1,
        ("G", 2): 1,
    }
    for (fam, rank), d in dets.items():
        assert sympy.Matrix(_build(fam, rank).cartan.rows).det() == d, (fam, rank)
        assert cli.main(["info", f"{fam}{rank}"]) == 0
        assert json.loads(capsys.readouterr().out)["payload"]["cartan_determinant"] == d, (fam, rank)


def test_cartan_diagonal_and_integrality():
    for fam, rank in ALL_SMALL:
        rs = _build(fam, rank)
        c = rs.cartan
        for i in range(rank):
            assert c[i, i] == 2
        # crystallographic: all pairings between roots are integers
        for beta in rs.roots[: min(len(rs.roots), 30)]:
            for p in rs.pairing_with_simple(beta):
                assert p.denominator == 1


def test_weights_dual_to_coroots():
    for fam, rank in [("A", 3), ("B", 4), ("C", 3), ("D", 5), ("E", 6), ("F", 4), ("G", 2)]:
        rs = _build(fam, rank)
        for i, w in enumerate(rs.fundamental_weights_ambient):
            pair = rs.pairing_with_simple(w)
            for j, p in enumerate(pair):
                assert p == (1 if i == j else 0)


def test_e6_second_weight_alpha_coords():
    rs = _build("E", 6)
    assert rs.fundamental_weights_alpha[1] == tuple(Fraction(x) for x in (1, 2, 2, 3, 2, 1))


def test_d5_last_weight_alpha_coords():
    rs = _build("D", 5)
    want = tuple(Fraction(x, 4) for x in (2, 4, 6, 3, 5))
    assert rs.fundamental_weights_alpha[4] == want


def test_weight_orders():
    cases = {
        ("A", 3): (4, 2, 4),
        ("A", 2): (3, 3),
        ("B", 4): (1, 1, 1, 2),
        ("C", 4): (2, 1, 2, 1),
        ("D", 4): (2, 1, 2, 2),
        ("D", 6): (2, 1, 2, 1, 2, 2),
        ("D", 5): (2, 1, 2, 4, 4),
        ("E", 6): (3, 1, 3, 1, 3, 3),
        ("E", 7): (1, 2, 1, 1, 2, 1, 2),
        ("E", 8): (1, 1, 1, 1, 1, 1, 1, 1),
        ("F", 4): (1, 1, 1, 1),
        ("G", 2): (1, 1),
    }
    for (fam, rank), z in cases.items():
        assert _build(fam, rank).weight_orders == z, (fam, rank)


def test_weight_scale_is_lcm_of_denominators():
    for fam, rank in [("A", 2), ("A", 4), ("B", 3), ("D", 5), ("E", 6), ("E", 7)]:
        rs = _build(fam, rank)
        s = rs.weight_scale
        for w in rs.fundamental_weights_alpha:
            for c in w:
                assert (c * s).denominator == 1
        # minimality: some coordinate needs the full scale
        assert any((c * (s // p)).denominator != 1
                   for p in {p for p in (2, 3, 5, 7) if s % p == 0}
                   for w in rs.fundamental_weights_alpha for c in w) or s == 1


def _from_alpha_coords(rs, c):
    """Reference: the ambient vector sum c_i alpha_i."""
    terms = [[Fraction(ci) * x for x in a] for ci, a in zip(c, rs.simple_roots)]
    return tuple(sum(column) for column in zip(*terms))


def test_alpha_coordinate_round_trip():
    for fam, rank in [("A", 3), ("B", 3), ("D", 4), ("F", 4), ("G", 2)]:
        rs = _build(fam, rank)
        for beta in rs.roots[:10]:
            coords = rs.alpha_coords(beta)
            assert _from_alpha_coords(rs, coords) == beta


def test_weight_coords_round_trip():
    rs = _build("C", 3)
    for m in [(1, 0, 0), (0, 2, 1), (3, 1, 2)]:
        v = rs.from_weight_coords(m)
        assert rs.pairing_with_simple(v) == m


def test_ambient_helpers_refuse_a_vector_of_another_dimension():
    rs = build("A", 2)  # in R^3
    for helper in (rs.pairing_with_simple, rs.alpha_coords, rs.span_component):
        with pytest.raises(DimensionMismatch, match="A2 lives in dimension 3, not 2"):
            helper((1, 0))
    with pytest.raises(DimensionMismatch):
        orbit(rs, (1, 0, 0, 0))


def _dot(u, v):
    return sum((Fraction(a) * b for a, b in zip(u, v)), Fraction(0))


@pytest.mark.parametrize("fam,rank", ALL_SMALL)
def test_ambient_helpers_match_the_fraction_formulas(fam, rank):
    rs = _build(fam, rank)
    alphas = rs.simple_roots
    for k in range(3):  # rational vectors off the root span and off the weight lattice
        v = tuple(Fraction((3 * k + 5 * i) % 7 - 3, 1 + (i + k) % 3) for i in range(rs.ambient_dim))
        pair = tuple(2 * _dot(v, a) / _dot(a, a) for a in alphas)
        assert rs.pairing_with_simple(v) == pair
        c = rs.alpha_coords(v)
        span = _from_alpha_coords(rs, c)
        assert rs.span_component(v) == span
        assert all(_dot([x - y for x, y in zip(v, span)], a) == 0 for a in alphas)  # v - span is orthogonal
        weights = [[Fraction(x) * mi for x in w] for mi, w in zip(pair, rs.fundamental_weights_ambient)]
        assert rs.from_weight_coords(pair) == tuple(sum(col) for col in zip(*weights)) == span


# the highest root in the simple-root basis (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, planches I-IX)
HIGHEST_ROOT = {
    "A": lambda n: (1,) * n,
    "B": lambda n: (1,) + (2,) * (n - 1),
    "C": lambda n: (2,) * (n - 1) + (1,),
    "D": lambda n: (1,) + (2,) * (n - 3) + (1, 1),
    "E": lambda n: {6: (1, 2, 2, 3, 2, 1), 7: (2, 2, 3, 4, 3, 2, 1), 8: (2, 3, 4, 6, 5, 4, 3, 2)}[n],
    "F": lambda n: (2, 3, 4, 2),
    "G": lambda n: (3, 2),
}


@pytest.mark.parametrize("fam,rank", ALL_TYPES)
def test_root_table_against_bourbaki(fam, rank):
    rs = _build(fam, rank)
    table = [tuple(row) for row in rs.root_coords.tolist()]
    assert table == [rs.alpha_coords(beta) for beta in rs.roots]
    positive = [b for b in table if min(b) >= 0]
    assert len(positive) == ROOT_COUNT[fam](rank) // 2
    assert sorted(b for b in table if max(b) <= 0) == sorted(tuple(-x for x in b) for b in positive)
    assert max(positive, key=sum) == HIGHEST_ROOT[fam](rank)


SWEEP_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [(fam, n) for fam in "BC" for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2), ("A", 20), ("A", 40), ("A", 150), ("D", 20), ("D", 40)]
)


def _divided_root_coords(rs):
    """The roots by the route that divides: walk each orbit in weight coordinates from its
    dominant top, then take (f * omega_i) / f of every point."""
    rows = rs.cartan.rows
    tops = [dominant(rows, [row[j] for row in rows]) for j in {g: i for i, g in enumerate(rs.gram.diagonal())}.values()]
    h = rs.rtype.coxeter_number
    pts = np.concatenate([mu for top in tops for mu, _, _ in orbit_levels(rows, h, top)], axis=1)
    return pts.T.astype(np.int64) @ rs.weights // rs.index


@pytest.mark.parametrize("fam,rank", SWEEP_TYPES)
def test_walked_root_coordinates_match_the_divided_ones(fam, rank):
    rs = _build(fam, rank)
    assert np.array_equal(rs.root_coords, _divided_root_coords(rs))  # row order included
    assert np.array_equal(rs.weights @ np.array(rs.cartan.rows).T, rs.index * np.eye(rank, dtype=np.int64))
    assert rs.invariant_factors == cokernel_invariant_factors(rs.cartan)


def test_root_tables_are_read_only():
    rs = build("B", 3)
    for table in (rs.root_coords, rs.gram):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 7


def test_build_checks_the_root_count(monkeypatch, capsys):
    walk = rootsystem.orbit_levels

    def short(*args):  # the walk without the last point of its last level, or the step to it
        levels = list(walk(*args))
        (mu, gen, parent), (last, *rest) = levels[-2:]
        return levels[:-2] + [(mu, gen[:-1], parent[:-1]), (last[:, :-1], *rest)]

    monkeypatch.setattr(rootsystem, "orbit_levels", short)
    with pytest.raises(AssertionError, match=r"E6: 71 roots, but rank \* \(ht\(theta\) \+ 1\) = 72"):
        build("E", 6)
    assert cli.main(["info", "E6"]) == 1
    assert "71 roots" in capsys.readouterr().err


def test_build_checks_the_order_formula_against_macdonald(monkeypatch, capsys):
    monkeypatch.setattr(rootsystem, "factorial", lambda n: 1)  # |W(E6)| = 6! * 3 * 24 becomes 72
    message = r"E6: n! \|P/Q\| prod\(m_i\) = 72, but prod \(ht\(beta\) \+ 1\) / ht\(beta\) = 51840"
    with pytest.raises(AssertionError, match=message):
        build("E", 6)
    assert cli.main(["info", "E6"]) == 1
    assert "51840" in capsys.readouterr().err


def test_the_cli_paths_build_no_fraction_view():
    rs = build("E", 7)
    report(rs)
    class_group(rs, cap=0)
    omega_expand(rs, (1, 0, 0, 0, 0, 0, 0))
    assert {"roots", "simple_roots", "fundamental_weights_ambient"}.isdisjoint(vars(rs))
    rs.roots  # read once, a view is kept
    assert "roots" in vars(rs)


def test_roots_closed_under_simple_reflections():
    for fam, rank in [("A", 2), ("B", 3), ("G", 2), ("F", 4)]:
        rs = _build(fam, rank)
        roots = set(rs.roots)
        for beta in rs.roots:
            pair = rs.pairing_with_simple(beta)
            for i, alpha in enumerate(rs.simple_roots):
                img = tuple(b - pair[i] * a for b, a in zip(beta, alpha))
                assert img in roots


def test_weyl_orders_classical_formulas():
    assert _build("A", 4).weyl_order == 120
    assert _build("B", 3).weyl_order == 48
    assert _build("C", 4).weyl_order == 384
    assert _build("D", 4).weyl_order == 192
    assert _build("E", 6).weyl_order == 51840
    assert _build("E", 7).weyl_order == 2903040
    assert _build("E", 8).weyl_order == 696729600
    assert _build("F", 4).weyl_order == 1152
    assert _build("G", 2).weyl_order == 12
    for fam, rank in ALL_TYPES:
        assert _build(fam, rank).weyl_order == WEYL_ORDER[fam](rank), (fam, rank)


def test_invalid_ranks():
    for fam, rank in [("A", 0), ("B", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 4)]:
        with pytest.raises(InvalidRank):
            RootSystemType(fam, rank)


def test_type_parsing():
    assert RootSystemType.parse("E6") == RootSystemType("E", 6)
    assert RootSystemType.parse("a2") == RootSystemType("A", 2)
    assert RootSystemType.parse("D", 5) == RootSystemType("D", 5)
    with pytest.raises(InvalidRank):
        RootSystemType.parse("E")


def test_alias_warnings():
    with pytest.warns(UserWarning, match="B_2"):
        RootSystemType("C", 2)
    with pytest.warns(UserWarning, match="A_3"):
        RootSystemType("D", 3)


def test_d3_matches_a3_invariants():
    """The rank-3 D lattice is the rank-3 A lattice in another labeling."""
    d3 = _build("D", 3)
    a3 = _build("A", 3)
    assert sorted(d3.weight_orders) == sorted(a3.weight_orders)
    assert sympy.Matrix(d3.cartan.rows).det() == sympy.Matrix(a3.cartan.rows).det()
    assert d3.weyl_order == a3.weyl_order
