"""Weyl group elements, orbits, enumeration, reflections, cohomology tests."""

from __future__ import annotations

import dataclasses
import warnings
from fractions import Fraction
from math import prod

import numpy as np
import pytest
import sympy

from rootinv import weyl
from rootinv.classgroup import class_group
from rootinv.errors import GroupCapExceeded, NotInvolution, OrbitCapExceeded
from rootinv.intlinalg import IntMatrix, smith_normal_form
from rootinv.rootsystem import RootSystemType, build, macdonald_order, orbit_levels
from rootinv.weyl import (
    WeylElement,
    _group_levels,
    _parabolic_factors,
    coroot_pairings,
    enumerate_group,
    group_order_bfs,
    h1_cyclic2,
    orbit,
    orbit_weight_coords,
    reflections,
    root_reflections,
    simple_reflections,
)


def _identity_element(n: int) -> WeylElement:
    return WeylElement(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))


def _reflection_in_root(rs, beta) -> WeylElement:
    """Reference: the reflection s_beta for a root beta in ambient coordinates, in Fractions."""
    beta = tuple(Fraction(x) for x in beta)
    cols = []
    for a in rs.simple_roots:
        c = rs.alpha_coords(_reflect_ambient(a, beta))
        if any(x.denominator != 1 for x in c):
            raise ValueError("reflection does not preserve the root lattice")
        cols.append(tuple(int(x) for x in c))
    return WeylElement(tuple(zip(*cols)))


def _reflect_ambient(v, beta):
    coef = 2 * sum(a * b for a, b in zip(v, beta)) / sum(b * b for b in beta)
    return tuple(a - coef * b for a, b in zip(v, beta))


def _order(w: WeylElement) -> int:
    power, k = w, 1
    while not power.is_identity():
        power, k = power * w, k + 1
    return k


def _apply(w: WeylElement, v) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, v)) for row in w.matrix)


def _minus(w: WeylElement) -> list[list[int]]:
    """The rows of 1 - w."""
    return [[(i == j) - x for j, x in enumerate(row)] for i, row in enumerate(w.matrix)]


def _is_reflection(w: WeylElement) -> bool:
    """Reference: 1 - w has rank exactly 1 (a lattice reflection)."""
    return sympy.Matrix(_minus(w)).rank() == 1


def _inverse(w: WeylElement) -> WeylElement:
    out = _identity_element(w.n)
    for _ in range(_order(w) - 1):
        out = out * w
    return out


def test_simple_reflection_matrix_a2():
    rs = build("A", 2)
    s1, s2 = simple_reflections(rs)
    assert s1.matrix == ((-1, 1), (0, 1))
    assert s2.matrix == ((1, 0), (1, -1))
    assert (s1 * s1).is_identity()
    assert _order(s1 * s2) == 3


def test_element_algebra():
    rs = build("B", 3)
    gens = simple_reflections(rs)
    w = gens[0] * gens[1] * gens[2]
    assert not w.is_identity()
    e = _identity_element(3)
    assert (w * e) == w
    assert hash(w * e) == hash(w)
    assert _apply(w, (0, 0, 0)) == (0, 0, 0)


def test_orbit_sizes():
    cases = [
        (("A", 2), (1, 0), 3),
        (("A", 2), (1, 1), 6),  # regular weight: orbit is the full group
        (("A", 3), (1, 0, 0), 4),
        (("B", 2), (0, 1), 4),
        (("B", 3), (1, 0, 0), 6),
        (("C", 3), (1, 0, 0), 6),
        (("D", 4), (1, 0, 0, 0), 8),
        (("G", 2), (1, 0), 6),
        (("E", 6), (1, 0, 0, 0, 0, 0), 27),
        (("E", 6), (0, 0, 0, 0, 0, 1), 27),
        (("E", 7), (0, 0, 0, 0, 0, 0, 1), 56),
    ]
    for (fam, rank), m, size in cases:
        rs = build(fam, rank)
        assert len(orbit_weight_coords(rs, m)) == size, (fam, rank, m)


def test_every_root_is_conjugate_to_a_simple_root():
    from fractions import Fraction

    for name in ["A3", "B3", "G2", "F4"]:
        rs = build(RootSystemType.parse(name))
        seen = set()
        for alpha in rs.simple_roots:
            for rv in orbit(rs, alpha).vectors:
                seen.add(rv.to_fractions())
        assert seen == {tuple(Fraction(x) for x in beta) for beta in rs.roots}


def test_orbit_rational_vector_agrees_with_weight_route():
    rs = build("A", 3)
    amb = rs.from_weight_coords((1, 0, 1))
    assert orbit(rs, amb).size == len(orbit_weight_coords(rs, (1, 0, 1)))


def test_orbit_off_the_weight_lattice():
    from fractions import Fraction as F
    from itertools import permutations, product

    a2 = orbit(build("A", 2), (F(1, 3), 0, F(-1, 3)))
    assert {rv.to_fractions() for rv in a2.vectors} == set(permutations((F(1, 3), F(0), F(-1, 3))))
    b2 = orbit(build("B", 2), (F(1, 2), F(1, 3)))
    signed = {(sx * x, sy * y) for x, y in permutations((F(1, 2), F(1, 3))) for sx, sy in product((1, -1), repeat=2)}
    assert len(signed) == 8
    assert {rv.to_fractions() for rv in b2.vectors} == signed


def test_orbit_cap():
    rs = build("D", 4)
    with pytest.raises(OrbitCapExceeded):
        orbit_weight_coords(rs, (1, 1, 1, 1), cap=10)


@pytest.mark.parametrize("name,order", [("E6", 51840), ("F4", 1152)])
def test_orbit_of_rho_has_no_repeated_points(name, order):
    rs = build(RootSystemType.parse(name))
    pts = orbit_weight_coords(rs, (1,) * rs.rank)
    assert len(pts) == len(set(pts)) == order


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "F4"])
def test_non_dominant_start_gives_the_orbit_of_its_dominant_point(name):
    from fractions import Fraction as F

    rs = build(RootSystemType.parse(name))
    n = rs.rank
    tops = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    tops += [(1,) * n, (2,) + (0,) * (n - 1), tuple(F(k + 1, 3) for k in range(n))]
    for top in tops:
        want = orbit_weight_coords(rs, top)
        assert want[0] == top  # the walk starts at the dominant point
        for start in (want[1], want[len(want) // 2], want[-1]):
            assert min(start) < 0
            got = orbit_weight_coords(rs, start)
            assert len(got) == len(want) and set(got) == set(want), (name, top, start)


def _refuse_the_walk(monkeypatch):
    def refuse(*args):
        raise AssertionError("the orbit walk was entered")

    monkeypatch.setattr(weyl, "orbit_levels", refuse)


def test_orbit_cap_is_checked_before_a_point_is_kept(monkeypatch):
    rs = build("E", 6)
    _refuse_the_walk(monkeypatch)
    with pytest.raises(OrbitCapExceeded):
        orbit_weight_coords(rs, (1,) * 6, cap=100)  # |W| / |W_J| = 51,840 with J empty
    with pytest.raises(OrbitCapExceeded):
        orbit_weight_coords(rs, (1, 0, 0, 0, 0, 0), cap=26)  # 27 points, one beyond the cap


def test_an_e8_orbit_beyond_the_cap_is_refused_at_once(monkeypatch):
    rs = build("E", 8)
    _refuse_the_walk(monkeypatch)
    with pytest.raises(OrbitCapExceeded, match=r"^orbit larger than 1000000; raise it with --orbit-cap$"):
        orbit_weight_coords(rs, (1,) * 8, cap=10**6)  # |W(E8)| = 696,729,600 points


def test_the_orbit_walk_is_checked_against_the_orbit_size(monkeypatch):
    walk = weyl.orbit_levels

    def short(*args):
        levels = list(walk(*args))
        mu, gen, parent = levels[-1]
        return levels[:-1] + [(mu[:, 1:], gen, parent)]

    monkeypatch.setattr(weyl, "orbit_levels", short)
    with pytest.raises(AssertionError, match=r"^the orbit walk found 26 points, \|W\| / \|W_J\| gives 27$"):
        orbit_weight_coords(build("E", 6), (1, 0, 0, 0, 0, 0))


def _closure(rs, m, gens=None):
    """Reference: the orbit of m (weight coordinates) under the simple reflections gens, as a closed set."""
    cols = list(zip(*rs.cartan.rows))
    seen, todo = {tuple(m)}, [tuple(m)]
    while todo:
        mu = todo.pop()
        for i in range(rs.rank) if gens is None else gens:
            nu = tuple(a - mu[i] * c for a, c in zip(mu, cols[i]))
            if nu not in seen:
                seen.add(nu)
                todo.append(nu)
    return seen


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "D4", "G2", "F4"])
def test_orbit_walk_matches_the_closure_reference(name):
    rs = _types(name)[0]
    n = rs.rank
    tops = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    tops += [(1,) * n, (2,) + (0,) * (n - 1), (0,) * (n - 1) + (3,), tuple(Fraction(k + 1, 3) for k in range(n))]
    tops.append((2**70,) + (0,) * (n - 1))  # past int64: the walk runs on Python ints
    for top in tops:
        want = _closure(rs, top)
        stabilizer = _closure(rs, (1,) * n, [j for j in range(n) if top[j] == 0])  # a regular orbit of W_J
        assert len(want) * len(stabilizer) == rs.weyl_order, (name, top)
        starts = [top] + sorted(p for p in want if min(p) < 0)[:: max(1, len(want) // 4)]
        for start in starts:
            got = orbit_weight_coords(rs, start)
            assert len(got) == len(set(got)) == len(want) and set(got) == want, (name, top, start)
    assert _walk_dtype(rs, tops[-1]) == object


_SIZED = (
    [f"A{r}" for r in range(1, 9)] + [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)] + ["E6", "E7", "E8", "F4", "G2"]
)


def test_fundamental_orbit_walks_match_their_sizes():
    # the walk's point count, with no repeats, against |W| / |W_J| for J = every node but i
    count = 0
    for rs in _types(*_SIZED):
        coords, n = rs.root_coords, rs.rank
        for i in range(n):
            top = tuple(int(i == j) for j in range(n))
            pts = np.concatenate([mu for mu, _, _ in orbit_levels(rs.cartan.rows, rs.rtype.coxeter_number, top)], 1)
            size = rs.weyl_order // macdonald_order(coords[coords[:, i] == 0])
            assert pts.shape[1] == len(np.unique(pts, axis=1).T) == size, (rs.rtype.name, i)
            count += size
    # A_n: C(n + 1, i); B_n, C_n: 2^i C(n, i); D_n: the same but 2^(n - 1) at both spin nodes;
    # E6, E7, E8, F4, G2: 1,278, 17,642, 881,760, 240, 12 (Bourbaki, planches)
    assert count == 929_630


def test_group_enumeration_small():
    orders = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "C3": 48, "D4": 192, "G2": 12, "F4": 1152}
    for name, order in orders.items():
        rs = build(RootSystemType.parse(name))
        g = enumerate_group(rs)
        assert len(g) == order == rs.weyl_order
        assert group_order_bfs(rs) == order
        assert _identity_element(rs.rank) in g


def test_group_cap():
    rs = build("E", 6)
    for scan in (group_order_bfs, enumerate_group, reflections):
        with pytest.raises(GroupCapExceeded):
            scan(rs, cap=1000)


@pytest.mark.parametrize(
    "name,degrees",
    [
        ("A3", (2, 3, 4)),
        ("B3", (2, 4, 6)),
        ("G2", (2, 6)),
        ("D4", (2, 4, 4, 6)),
        ("F4", (2, 6, 8, 12)),
        ("E6", (2, 5, 6, 8, 9, 12)),
    ],
)
def test_levels_are_graded_by_coxeter_length(name, degrees):
    # the Poincare polynomial sum_w q^l(w) is prod_i (1 + q + ... + q^(d_i - 1))
    poincare = [1]
    for d in degrees:
        poincare = [sum(poincare[max(0, k - d + 1) : k + 1]) for k in range(len(poincare) + d - 1)]
    rs = build(RootSystemType.parse(name))
    assert [level.shape[0] for level in _group_levels(rs, rs.weyl_order)] == poincare


def test_reflection_count_equals_positive_roots():
    for name, count in [("A3", 6), ("B3", 9), ("C3", 9), ("D4", 12), ("G2", 6), ("F4", 24)]:
        rs = build(RootSystemType.parse(name))
        assert len(reflections(rs)) == count


def test_reflections_are_the_involutions_of_trace_n_minus_2():
    for rs in _types("A3", "B3", "B4", "C3", "D4", "G2", "F4"):
        n = rs.rank
        criterion = set()
        for w in enumerate_group(rs):
            trace = sum(row[i] for i, row in enumerate(w.matrix))
            involution = (w * w).is_identity() and trace == n - 2
            assert involution == _is_reflection(w), (rs.rtype.name, w.matrix)
            if involution:
                criterion.add(w)
        assert criterion == set(reflections(rs)), rs.rtype.name


def test_reflection_in_root():
    rs = build("B", 3)
    group = enumerate_group(rs)
    for beta in rs.roots:
        s = _reflection_in_root(rs, beta)
        assert _is_reflection(s)
        assert _order(s) == 2
        assert s in group


def test_h1_values():
    swap = WeylElement(((0, 1), (1, 0)))
    assert h1_cyclic2(swap) == 1
    sign = WeylElement(((-1,),))
    assert h1_cyclic2(sign) == 2
    sign2 = WeylElement(((-1, 0), (0, 1)))
    assert h1_cyclic2(sign2) == 2
    minus = WeylElement(((-1, 0), (0, -1)))
    assert h1_cyclic2(minus) == 4  # (Z/2)^2 has order 4
    ident = _identity_element(2)
    assert h1_cyclic2(ident) == 1


def test_h1_rejects_higher_order():
    rs = build("A", 2)
    s1, s2 = simple_reflections(rs)
    with pytest.raises(NotInvolution):
        h1_cyclic2(s1 * s2)


def test_h1_conjugation_invariant():
    rs = build("B", 3)
    refl = sorted(reflections(rs), key=lambda w: w.sort_key())
    group = sorted(enumerate_group(rs), key=lambda w: w.sort_key())
    for s in refl[:4]:
        base = h1_cyclic2(s)
        for g in group[:12]:
            conj = g * s * _inverse(g)
            assert h1_cyclic2(conj) == base


def test_diagonalizable_subgroup_b4():
    res = class_group(build("B", 4))
    assert res.method == "exhaustive-scan"
    assert res.diagonalizable_rank == 4


def test_diagonalizable_subgroup_trivial_cases():
    for name in ["A3", "A4", "C3", "C4", "D4", "D5", "G2", "F4"]:
        rs = build(RootSystemType.parse(name))
        assert class_group(rs).diagonalizable_rank == 0, name


def test_diagonalizable_subgroup_a1_c2():
    assert class_group(build("A", 1)).diagonalizable_rank == 1
    with pytest.warns(UserWarning):
        c2 = build("C", 2)
    assert class_group(c2).diagonalizable_rank == 2


def test_fallback_agrees_with_scan():
    for name in ["A3", "B3", "B4", "C3", "C4", "D4", "D5"]:
        rs = build(RootSystemType.parse(name))
        scan = class_group(rs)
        fallback = class_group(rs, cap=1)
        assert (scan.method, fallback.method) == ("exhaustive-scan", "family-fallback")
        assert scan.diagonalizable_rank == fallback.diagonalizable_rank, name


def _types(*names):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [build(RootSystemType.parse(name)) for name in names]


def test_root_reflections_match_the_fraction_reference():
    names = [f"A{r}" for r in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    names += [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)]
    names += ["E6", "E7", "E8", "F4", "G2"]
    for rs in _types(*names):
        positive = [beta for beta in rs.roots if min(rs.alpha_coords(beta)) >= 0]
        want = {_reflection_in_root(rs, beta) for beta in positive}
        got = root_reflections(rs)
        assert len(got) == len(want) == len(positive), rs.rtype.name
        assert set(got) == want, rs.rtype.name


def test_root_reflections_of_d40_are_1560_involutions():
    refl = root_reflections(build("D", 40))
    assert len(set(refl)) == len(refl) == 1560
    assert list(refl) == sorted(refl, key=WeylElement.sort_key)
    mats = np.array([w.matrix for w in refl], dtype=np.int64)
    assert (mats @ mats == np.eye(40, dtype=np.int64)).all()
    assert (np.trace(mats, axis1=1, axis2=2) == 38).all()


def test_root_reflections_reject_a_fractional_coroot_pairing():
    rs = build("B", 2)
    bad = dataclasses.replace(rs, gram=np.array([[2, -1], [-1, 3]]))  # (alpha_1, alpha_2^vee) = -2/3
    with pytest.raises(ValueError, match="not an integer"):
        root_reflections(bad)
    with pytest.raises(ValueError, match="not an integer"):
        class_group(bad, cap=0)  # the fallback reads the same pairing table


def _rank_f2(rows):
    m = [[x % 2 for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                m[i] = [(x + y) % 2 for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_h1_matches_the_c2_lattice_classification():
    # A Z[C2]-lattice is a sum of trivial, sign and regular summands; H^1 is
    # (Z/2)^(sign count), and the sign count is rank_Q(1-w) - rank_F2(1-w).
    names = ["A1", "A2", "A3", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4"]
    count = 0
    for rs in _types(*names):
        for w in enumerate_group(rs):
            if not (w * w).is_identity():
                continue
            minus = _minus(w)
            want = 2 ** (sympy.Matrix(minus).rank() - _rank_f2(minus))
            assert h1_cyclic2(w) == want, (rs.rtype.name, w.matrix)
            count += 1
    assert count == 562


def _h1_smith_reference(w: WeylElement) -> int:
    """Reference: the torsion of coker(1 - w), the product of the nonzero Smith invariants of 1 - w."""
    return prod(d for d in smith_normal_form(IntMatrix.from_rows(_minus(w))).diagonal if d)


def test_h1_matches_the_smith_reference():
    names = [f"A{r}" for r in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    names += [f"C{n}" for n in range(2, 13)] + [f"D{n}" for n in range(4, 13)]
    names += ["E6", "E7", "E8", "F4", "G2"]
    reflection_count = 0
    for rs in _types(*names):
        for w in root_reflections(rs):
            assert h1_cyclic2(w) == _h1_smith_reference(w), (rs.rtype.name, w.matrix)
            reflection_count += 1
    involution_count = 0
    for rs in _types("A1", "A2", "A3", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "G2", "F4"):
        for w in enumerate_group(rs):
            if (w * w).is_identity():
                assert h1_cyclic2(w) == _h1_smith_reference(w), (rs.rtype.name, w.matrix)
                involution_count += 1
    assert (reflection_count, involution_count) == (1785, 562)


def _group_levels_reference(rs):
    """Reference: the dense kernel, yielding each level with w(rho) in int64.

    It gathers every element that s_i lengthens with all n coordinates of
    w(rho), and rewrites row i of each matrix with an einsum over the whole
    Cartan row i.
    """
    n = rs.rank
    cartan = np.array(rs.cartan.rows, dtype=np.int64)
    cartan8 = cartan.astype(np.int8)
    level = np.eye(n, dtype=np.int8)[None, :, :]
    rho = np.ones((1, n), dtype=np.int64)
    while level.shape[0]:
        yield level, rho
        mats, rhos = [], []
        for i in range(n):
            up = np.flatnonzero(rho[:, i] > 0)
            r = rho[up] - rho[up, i, None] * cartan[:, i]
            first = (r[:, :i] > 0).all(axis=1)
            new = level[up[first]]
            new[:, i, :] -= np.einsum("j,fjk->fk", cartan8[i], new)
            mats.append(new)
            rhos.append(r[first])
        level, rho = np.concatenate(mats), np.concatenate(rhos)


def _types_up_to(order: int):
    """Every type with |W| <= order."""
    out = _types("E6", "F4", "G2")
    for family, rank in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        while (rs := _types(f"{family}{rank}")[0]).weyl_order <= order:
            out.append(rs)
            rank += 1
    return out


def test_group_levels_match_the_dense_reference():
    types = _types_up_to(60_000)
    assert len(types) == 24  # A1-A7, B2-B6, C2-C6, D3-D6, E6, F4, G2
    for rs in types:
        got = list(_group_levels(rs, rs.weyl_order))
        want = [level for level, _ in _group_levels_reference(rs)]
        assert len(got) == len(want), rs.rtype.name
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == np.int8, rs.rtype.name
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), rs.rtype.name


def test_group_level_dtypes_hold_their_bounds():
    for rs in _types_up_to(60_000):
        h = len(rs.roots) // rs.rank  # the Coxeter number
        assert rs.rtype.coxeter_number == h, rs.rtype.name
        rho_max = max(int(np.abs(rho).max()) for _, rho in _group_levels_reference(rs))
        assert rho_max == h - 1 <= np.iinfo(_walk_dtype(rs, (1,) * rs.rank)).max, rs.rtype.name
        top = max(max(rs.alpha_coords(beta)) for beta in rs.roots)  # the highest root's largest coefficient
        entry_max = max(int(np.abs(level).max()) for level in _group_levels(rs, rs.weyl_order))
        assert entry_max == top <= np.iinfo(np.int8).max, rs.rtype.name
    e8, a2 = build("E", 8), build("A", 2)
    assert _walk_dtype(e8, (1,) * 8) == _walk_dtype(e8, (0, 0, 0, 1, 0, 0, 0, 0)) == np.int8  # h - 1 = 29
    assert _walk_dtype(a2, (63, 0)) == np.int8 and _walk_dtype(a2, (64, 0)) == np.int16  # 2 * 63 <= 127 < 2 * 64
    assert _walk_dtype(a2, (2**62 - 1, 0)) == np.int64 and _walk_dtype(a2, (2**62, 0)) == object  # 2^63 - 2, 2^63


def _walk_dtype(rs, top):
    """The dtype of the orbit walk from the dominant point top."""
    mu, _, _ = next(orbit_levels(rs.cartan.rows, rs.rtype.coxeter_number, top))
    return mu.dtype


def test_cap_errors_name_their_flag():
    with pytest.raises(GroupCapExceeded, match=r"^\|W\| = 51840 exceeds cap 1000; raise it with --group-cap$"):
        group_order_bfs(build("E", 6), cap=1000)
    with pytest.raises(OrbitCapExceeded, match=r"^orbit larger than 100; raise it with --orbit-cap$"):
        orbit_weight_coords(build("E", 6), (1,) * 6, cap=100)


def _reflections_reference(rs) -> tuple[WeylElement, ...]:
    """Reference: the level-walk scan, a trace filter and an involution check on every level of W."""
    n = rs.rank
    eye = np.eye(n, dtype=np.int64)
    found = []
    for level in _group_levels(rs, rs.weyl_order):
        cand = level[np.trace(level, axis1=1, axis2=2) == n - 2].astype(np.int64)
        square = np.einsum("fij,fjk->fik", cand, cand)
        found.extend(WeylElement(m) for m in cand[(square == eye).all(axis=(1, 2))].tolist())
    found.sort(key=WeylElement.sort_key)
    return tuple(found)


_SCANNED = (
    [f"A{r}" for r in range(1, 10)] + [f"B{n}" for n in range(2, 8)] + [f"C{n}" for n in range(3, 8)]
    + [f"D{n}" for n in range(4, 8)] + ["E6", "E7", "F4", "G2"]
)


def test_reflection_scan_matches_the_level_walk_reference():
    systems = _types(*_SCANNED)
    assert [rs.rtype.name for rs in systems if rs.weyl_order > 4_000_000] == []
    for rs in systems:
        assert reflections(rs) == _reflections_reference(rs), rs.rtype.name


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3", "D4", "F4", "G2"])
def test_parabolic_factors_multiply_out_to_the_group(name):
    rs = _types(name)[0]
    a, b = _parabolic_factors(rs, rs.weyl_order)
    assert a.dtype == b.dtype == np.int8
    assert len(a) ** 2 >= rs.weyl_order  # the first factor is the larger
    products = (a[:, None].astype(np.int64) @ b[None]).reshape(-1, rs.rank, rs.rank)
    elements = {WeylElement(m) for m in products.tolist()}
    assert len(elements) == len(products) == rs.weyl_order
    assert elements == enumerate_group(rs)


def test_parabolic_factors_check_the_order():
    rs = build("D", 5)
    with pytest.raises(AssertionError, match="the order formula gives 3840"):
        _parabolic_factors(dataclasses.replace(rs, weyl_order=2 * rs.weyl_order), 10**6)


@pytest.mark.parametrize("block", [1, 7, 100])
def test_reflection_scan_does_not_depend_on_the_block(monkeypatch, block):
    systems = _types("A4", "B4", "D5", "F4", "G2")
    want = [reflections(rs) for rs in systems]
    monkeypatch.setattr(weyl, "_BLOCK", block)
    assert [reflections(rs) for rs in systems] == want


_PARITY_TYPES = [f"A{r}" for r in range(1, 13)] + [f"B{n}" for n in range(2, 13)] + [f"C{n}" for n in range(2, 13)]
_PARITY_TYPES += [f"D{n}" for n in range(3, 13)] + ["E6", "E7", "E8", "F4", "G2"]


def test_coroot_parity_decides_h1_of_every_root_reflection():
    # s = 1 - b (x) c has H^1 = Z/2 exactly when b or c is even: the rule class_group counts by
    assert len(_PARITY_TYPES) == 49
    count = 0
    for rs in _types(*_PARITY_TYPES):
        b, c = coroot_pairings(rs)
        refl = [WeylElement(m.tolist()) for m in np.eye(rs.rank, dtype=np.int64) - b[:, :, None] * c[:, None, :]]
        assert set(refl) == set(root_reflections(rs)), rs.rtype.name
        diagonalizable = 0
        for bk, ck, s in zip(b, c, refl):
            even = not (bk % 2).any() or not (ck % 2).any()
            assert even == (h1_cyclic2(s) == 2), (rs.rtype.name, s.matrix)
            diagonalizable += even
        assert class_group(rs, cap=0).diagonalizable_rank == diagonalizable, rs.rtype.name
        count += len(refl)
    assert count == 2481
