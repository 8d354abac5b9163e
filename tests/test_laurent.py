"""Sparse integer Laurent polynomials and Weyl-orbit sums."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from rootinv import laurent
from rootinv.errors import DimensionMismatch, RingMismatch
from rootinv.laurent import (
    ExponentLattice,
    LaurentPoly,
    act,
    alpha_ring,
    is_invariant,
    orbit_sum,
    orbit_sum_weight_coords,
    render,
)
from rootinv.rootsystem import build, dominant, orbit_tree
from rootinv.weyl import orbit, orbit_weight_coords, simple_reflections


def _orbit_sum_ambient(rs, v, ring: ExponentLattice) -> LaurentPoly:
    """Reference: the orbit sum of v with exponents in ambient coordinates (times ring scale)."""
    terms = {}
    for rv in orbit(rs, v).vectors:
        e = [x * ring.scale for x in rv.to_fractions()]
        if any(x.denominator != 1 for x in e):
            raise DimensionMismatch("orbit leaves the scaled ambient lattice")
        terms[tuple(int(x) for x in e)] = 1
    return LaurentPoly(ring, terms)


def _elementary_symmetric(ring: ExponentLattice, n: int, i: int) -> LaurentPoly:
    """Reference: the i-th elementary symmetric polynomial in x_1 .. x_n (ambient ring, scale s)."""
    terms = {}
    for subset in combinations(range(n), i):
        terms[tuple(ring.scale if k in subset else 0 for k in range(ring.dim))] = 1
    return LaurentPoly(ring, terms)


def _elementary_symmetric_identity_check(rs, i: int) -> bool:
    """For the rank-(n-1) symmetric family: the orbit sum of the i-th weight times the
    balancing monomial equals the i-th elementary symmetric polynomial."""
    n = rs.ambient_dim
    ring = ExponentLattice(n, n)
    os = _orbit_sum_ambient(rs, rs.fundamental_weights_ambient[i - 1], ring)
    shift = LaurentPoly.monomial(ring, (i,) * n)  # x^{(i/n, ..., i/n)} at scale n
    return os * shift == _elementary_symmetric(ring, n, i)


def test_ring_arithmetic():
    ring = ExponentLattice(2, 1)
    x = LaurentPoly.monomial(ring, (1, 0))
    y = LaurentPoly.monomial(ring, (0, 1))
    one = LaurentPoly.constant(ring, 1)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + one) ** 3 == x**3 + x * x * 3 + x * 3 + one
    assert (x - x).is_zero()
    assert x**0 == one
    inv = LaurentPoly.monomial(ring, (-1, 0))
    assert x * inv == one
    assert -(x - y) == y - x
    assert x.coefficient((1, 0)) == 1 and x.coefficient((5, 5)) == 0


def test_zero_and_hash():
    ring = ExponentLattice(1, 1)
    assert LaurentPoly.zero(ring) == LaurentPoly.constant(ring, 0)
    a = LaurentPoly.monomial(ring, (2,), 3)
    b = LaurentPoly.monomial(ring, (2,), 3)
    assert hash(a) == hash(b) and a == b


def test_ring_mismatch():
    r1 = ExponentLattice(2, 1)
    r2 = ExponentLattice(2, 3)
    with pytest.raises(RingMismatch):
        LaurentPoly.monomial(r1, (1, 0)) * LaurentPoly.monomial(r2, (1, 0))


def test_act_on_simple_root_monomials():
    rs = build("A", 2)
    s1, _ = simple_reflections(rs)
    ring = alpha_ring(rs)
    s = ring.scale
    x_a1 = LaurentPoly.monomial(ring, (s, 0))
    x_a2 = LaurentPoly.monomial(ring, (0, s))
    assert act(s1, x_a1) == LaurentPoly.monomial(ring, (-s, 0))
    assert act(s1, x_a2) == LaurentPoly.monomial(ring, (s, s))


def test_orbit_sum_sizes_a2():
    rs = build("A", 2)
    # fundamental weight: 3 terms; root: all 6 roots
    assert orbit_sum_weight_coords(rs, (1, 0)).nterms == 3
    assert orbit_sum_weight_coords(rs, (1, 1)).nterms == 6
    assert orbit_sum_weight_coords(rs, (0, 0)).nterms == 1
    amb = rs.from_weight_coords((1, 1))
    assert orbit_sum(rs, amb).nterms == 6


def test_orbit_sum_rejects_non_weight():
    rs = build("A", 2)
    bad = tuple(Fraction(1, 7) * x for x in rs.simple_roots[0])
    with pytest.raises(DimensionMismatch):
        orbit_sum(rs, bad)


@pytest.mark.parametrize("m", [(1,), (1, 0, 0)])
@pytest.mark.parametrize(
    "walk",
    [
        orbit_sum_weight_coords,
        orbit_weight_coords,
        lambda rs, m: dominant(rs.cartan.rows, m),
        lambda rs, m: list(orbit_tree(rs.cartan.rows, m)),
    ],
)
def test_weights_of_the_wrong_length_are_rejected(walk, m):
    with pytest.raises(DimensionMismatch, match=f"weight of length {len(m)}, expected 2"):
        walk(build("A2"), m)


def test_orbit_sums_are_invariant():
    for name in ["A2", "B3", "C3", "D4", "G2"]:
        rs = build(name[0], int(name[1]))
        for i in range(rs.rank):
            unit = tuple(1 if j == i else 0 for j in range(rs.rank))
            assert is_invariant(rs, orbit_sum_weight_coords(rs, unit)), (name, i)


def test_non_invariant_detected():
    rs = build("A", 2)
    ring = alpha_ring(rs)
    x = LaurentPoly.monomial(ring, (ring.scale, 0))
    assert not is_invariant(rs, x)


def test_elementary_symmetric_basics():
    ring = ExponentLattice(4, 1)
    e2 = _elementary_symmetric(ring, 4, 2)
    assert e2.nterms == 6
    assert all(c == 1 for _, c in e2.terms())


def test_elementary_symmetric_identity():
    for n in (2, 3, 4):
        rs = build("A", n - 1)
        for i in range(1, n):
            assert _elementary_symmetric_identity_check(rs, i), (n, i)


def test_ambient_ring_dimensions():
    rs = build("B", 3)
    ring = ExponentLattice(rs.ambient_dim, rs.weight_scale)
    p = _orbit_sum_ambient(rs, rs.fundamental_weights_ambient[0], ring)
    assert p.nterms == 6 and all(len(e) == ring.dim == rs.ambient_dim for e, _ in p.terms())


def test_render():
    ring = ExponentLattice(2, 2)
    p = LaurentPoly(ring, {(2, 0): 1, (-2, 2): 3, (1, 0): 1, (0, 0): 7})
    s = render(p)
    assert s == "3*x1^-1*x2 + 7 + x1^(1/2) + x1"
    assert render(LaurentPoly.zero(ring)) == "0"


def test_long_products_are_formed_in_bounded_blocks():
    # 3000 x 3000 = 9 million term pairs and 5,999 terms out; all pairs at once need about 300 MB.
    ring = ExponentLattice(1, 1)
    a = LaurentPoly(ring, {(k,): 1 for k in range(3000)})
    tracemalloc.start()
    try:
        square = a * a
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert square.terms() == tuple(((k,), min(k, 5998 - k) + 1) for k in range(5999))
    assert peak < 64 * 2**20


def test_orbit_sum_product_working_memory_is_a_band():
    # C7's 672 x 672 orbit-sum square: 451,584 term pairs and 34,455 terms out.  Merging
    # each block of pairs into the running result peaked at 8.0 MB, and unpacking all the
    # result's keys into int64 exponents at 3.5 MB; in int8, a block at a time, 1.3 MB.
    rs = build("C", 7)
    p = next(q for q in (orbit_sum_weight_coords(rs, [int(j == i) for j in range(7)]) for i in range(7)) if q.nterms == 672)
    tracemalloc.start()
    try:
        square = p * p
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert square.nterms == 34_455 and square._exps.dtype == np.int8
    assert peak < 2 * 2**20


def test_a_band_holds_at_most_four_times_its_target(monkeypatch):
    # Rows x^(i 10^6) (257 of them, so the key sample skips every other row) times a
    # dense 4,097-term run: every band between two sampled rows holds a whole skipped
    # row of 4,097 pairs against a target of 4 * 257, so it must be halved.
    ring = ExponentLattice(1, 1)
    rows = LaurentPoly(ring, {(i * 10**6,): 1 for i in range(257)})
    run = LaurentPoly(ring, {(j,): 1 for j in range(4097)})
    sizes = []

    def combine(keys, coeffs):
        sizes.append(len(keys))
        return combine_all(keys, coeffs)

    combine_all = laurent._combine
    monkeypatch.setattr(laurent, "_BLOCK", 1)
    monkeypatch.setattr(laurent, "_combine", combine)
    product = rows * run
    assert max(sizes) <= 4 * 4 * 257 and sum(sizes) == 257 * 4097
    assert product._exps.ravel().tolist() == [i * 10**6 + j for i in range(257) for j in range(4097)]
    assert product._coeffs.tolist() == [1] * (257 * 4097)


@pytest.mark.parametrize(
    "terms,dtype",
    [
        ({(127,): 1, (-127,): 2}, np.int8),
        ({(127,): 1, (-128,): 2}, np.int16),  # +128 needs 16 bits, so np.abs of -128 cannot wrap
        ({(1,): 1, (2**62,): 2}, np.int64),
        ({(1,): 1, (2**63,): 2}, object),
    ],
    ids=["int8", "int16", "int64", "object"],
)
def test_exponents_take_the_narrowest_type_that_holds_their_negation(terms, dtype):
    ring = ExponentLattice(1, 1)
    p = LaurentPoly(ring, terms)
    assert p._exps.dtype == dtype and p.terms() == tuple(sorted(terms.items()))
    assert laurent._abs_max(p._exps) == max(abs(e) for (e,) in terms)
    flip = act(simple_reflections(build("A", 1))[0], p)  # x1 -> x1^-1
    assert flip.terms() == tuple(sorted(((-e,), c) for (e,), c in terms.items()))
    square: dict = {}
    for (e1,), c1 in terms.items():
        for (e2,), c2 in terms.items():
            square[(e1 + e2,)] = square.get((e1 + e2,), 0) + c1 * c2
    assert (p * p).terms() == tuple(sorted(square.items()))


def test_coefficient_of_a_wrong_length_exponent_raises():
    p = LaurentPoly(ExponentLattice(2, 1), {(1, 2): 3})
    assert p.coefficient((1, 2)) == 3 and p.coefficient((0, 0)) == 0
    for exponent in ((1,), (1, 2, 0), ()):
        with pytest.raises(DimensionMismatch, match="exponent arity"):
            p.coefficient(exponent)


@pytest.mark.parametrize(
    "op",
    [
        lambda p: p * 2.0,
        lambda p: 2.0 * p,
        lambda p: p * "2",
        lambda p: p + 1,
        lambda p: 1 + p,
        lambda p: p - 1,
        lambda p: 1 - p,
        lambda p: p + None,
    ],
    ids=["mul-float", "rmul-float", "mul-str", "add-int", "radd-int", "sub-int", "rsub-int", "add-none"],
)
def test_arithmetic_with_a_non_polynomial_is_a_type_error(op):
    with pytest.raises(TypeError, match="unsupported operand|can't multiply"):
        op(LaurentPoly(ExponentLattice(2, 1), {(1, 2): 3}))
