"""Property tests for the two text formats (monoid instances, binomials), the box scan, the
box Hilbert basis, the kernel Hilbert basis, the relation fibers and the Laurent kernel."""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd, prod
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rootinv import cli, laurent, relations
from rootinv.errors import DimensionMismatch, FrontierCapExceeded
from rootinv.laurent import ExponentLattice, LaurentPoly, act, render
from rootinv.monoids import (
    Congruence,
    CongruenceMonoid,
    KernelInstance,
    box_elements,
    graded_lex_sorted,
    hilbert_basis_box,
    hilbert_basis_kernel,
    parse_instance,
    verify_cell_partition,
)
from rootinv.relations import Binomial, parse_binomial, relations_bounded, relations_equivalent, verify_relation
from rootinv.reports import report_A
from rootinv.weyl import WeylElement

# Fragments of the instance format, so that random text often comes close to an instance.
_FRAGMENTS = st.sampled_from(
    ["0", "1", "2", "-1", "12", "ker:", "KER:", "mod", " mod ", "#", " ", "\t", "\n", "x"]
)
# One line of comment text: anything but a line break.
_COMMENT = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=12)


@st.composite
def congruence_monoids(draw) -> CongruenceMonoid:
    dim = draw(st.integers(0, 5))
    congruence = st.builds(
        Congruence, st.tuples(*[st.integers(-20, 20)] * dim), st.integers(2, 12)
    )
    return CongruenceMonoid(dim, tuple(draw(st.lists(congruence, max_size=3))))


@st.composite
def instances(draw) -> CongruenceMonoid | KernelInstance:
    if draw(st.booleans()):
        neg = draw(st.lists(st.integers(-9, -1), min_size=1, max_size=3))
        pos = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3).filter(any))
        return KernelInstance(tuple(draw(st.permutations(neg + pos))))
    return draw(congruence_monoids())


def _text(inst: CongruenceMonoid | KernelInstance) -> str:
    """The instance in the text format that parse_instance reads."""
    if isinstance(inst, KernelInstance):
        return "ker: " + " ".join(str(c) for c in inst.coeffs) + "\n"
    lines = [str(inst.dim)]
    lines += [" ".join(map(str, c.coeffs)) + f" mod {c.modulus}" for c in inst.congruences]
    return "\n".join(lines) + "\n"


@st.composite
def binomials(draw) -> Binomial:
    n = draw(st.integers(2, 8))
    side = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=n, max_size=n).filter(
        lambda s: 1 in s and 2 in s
    ))
    exps = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    plus = tuple(e if s == 1 else 0 for s, e in zip(side, exps))
    minus = tuple(e if s == 2 else 0 for s, e in zip(side, exps))
    return Binomial(plus, minus).canonical()


@given(st.one_of(st.text(), st.lists(_FRAGMENTS, max_size=30).map("".join)))
def test_parse_instance_parses_or_raises_value_error(text):
    try:
        inst = parse_instance(text)
    except (ValueError, DimensionMismatch):
        return
    assert isinstance(inst, (CongruenceMonoid, KernelInstance))
    if isinstance(inst, CongruenceMonoid):
        assert inst.dim >= 0


@given(instances())
def test_parse_instance_inverts_serialize(inst):
    assert parse_instance(_text(inst)) == inst


@given(
    instances(),
    st.lists(st.tuples(st.integers(0, 10), st.text(" \t", max_size=4), _COMMENT), max_size=5),
)
def test_comment_lines_are_ignored_at_any_indentation(inst, comments):
    lines = _text(inst).splitlines()
    for pos, indent, text in comments:
        lines.insert(pos % (len(lines) + 1), f"{indent}#{text}")
    assert parse_instance("\n".join(lines)) == inst


@given(binomials())
def test_parse_binomial_inverts_format(b):
    assert parse_binomial(b.format(), len(b.plus)) == b


# Moduli far beyond int64 whose coefficients m/4, m/2, 3m/4 keep every generator order at most 4.
_BIG_MODULUS = st.sampled_from((10**20, 2**64))


@st.composite
def box_monoids(draw) -> CongruenceMonoid:
    small = draw(congruence_monoids())
    big = st.builds(
        lambda m, ks: Congruence(tuple(m * k // 4 for k in ks), m),
        _BIG_MODULUS,
        st.lists(st.integers(0, 3), min_size=small.dim, max_size=small.dim),
    )
    m = CongruenceMonoid(small.dim, small.congruences + tuple(draw(st.lists(big, max_size=2))))
    assume(prod(m.generator_orders()) <= 20_000)
    return m


def _box_elements_reference(m: CongruenceMonoid) -> tuple:
    box = product(*(range(z) for z in m.generator_orders()))
    return graded_lex_sorted(v for v in box if all(c.holds(v) for c in m.congruences))


@settings(deadline=None)
@given(box_monoids())
def test_box_elements_matches_the_pointwise_scan(m):
    got = box_elements(m)
    assert got == _box_elements_reference(m)
    assert all(type(x) is int for v in got for x in v)


def _hilbert_basis_reference(m: CongruenceMonoid) -> tuple:
    """Scaled unit vectors plus the nonzero box points above no earlier indecomposable."""
    indecomposable: list = []
    for v in _box_elements_reference(m)[1:]:  # graded order: any proper summand precedes v
        if not any(all(h[i] <= v[i] for i in range(m.dim)) for h in indecomposable):
            indecomposable.append(v)
    z = m.generator_orders()
    gens = [tuple(zi if j == i else 0 for j in range(m.dim)) for i, zi in enumerate(z)]
    return graded_lex_sorted(gens + indecomposable)


@settings(deadline=None)
@given(box_monoids())
def test_hilbert_basis_box_matches_the_pairwise_reference(m):
    got = hilbert_basis_box(m).elements
    assert got == _hilbert_basis_reference(m)
    assert all(type(x) is int for v in got for x in v)


# Contejean-Devie completion: the degree-at-a-time arrays against the dict loop they replaced.
def _kernel_reference(rows, frontier_cap: int | None = None) -> tuple[tuple, int]:
    """Basis and widest frontier of the dict loop, taking each degree's solutions before its growth steps.

    Raises FrontierCapExceeded, with the kernel's message, once a degree's frontier passes frontier_cap.
    """
    s = len(rows[0])
    cols = [tuple(r[i] for r in rows) for i in range(s)]
    basis: list = []
    frontier = {tuple(int(j == i) for j in range(s)): cols[i] for i in range(s)}
    widest, degree = 0, 1
    while frontier:
        nxt: dict = {}
        for t, val in sorted(frontier.items(), key=lambda item: any(item[1])):
            if not any(val):
                if not any(all(b[j] <= t[j] for j in range(s)) for b in basis):
                    basis.append(t)
                continue
            for i in range(s):
                if sum(v * c for v, c in zip(val, cols[i])) < 0:
                    t2 = tuple(t[j] + (j == i) for j in range(s))
                    if t2 not in nxt and not any(all(b[j] <= t2[j] for j in range(s)) for b in basis):
                        nxt[t2] = tuple(v + c for v, c in zip(val, cols[i]))
        widest, degree = max(widest, len(nxt)), degree + 1
        if frontier_cap is not None and len(nxt) > frontier_cap:
            raise FrontierCapExceeded(
                f"completion frontier reached {len(nxt)} points at degree {degree}, past the cap of "
                f"{frontier_cap} (the frontier_cap argument of hilbert_basis_kernel)"
            )
        frontier = nxt
    basis = [b for b in basis if not any(b2 != b and all(x <= y for x, y in zip(b2, b)) for b2 in basis)]
    return graded_lex_sorted(basis), widest


@st.composite
def kernel_rows(draw) -> list:
    """1-2 rows of 2-6 coefficients in [-7, 7], each row of mixed signs; some columns may be zero."""
    s = draw(st.integers(2, 6))
    rows = draw(st.lists(st.lists(st.integers(-7, 7), min_size=s, max_size=s), min_size=1, max_size=2))
    zero = draw(st.sets(st.integers(0, s - 1), max_size=s - 2))
    rows = [tuple(0 if j in zero else x for j, x in enumerate(r)) for r in rows]
    assume(all(min(r) < 0 < max(r) for r in rows))
    return rows


# Some drawn rows widen the frontier to thousands of points (a minute of the dict loop); past
# this width both routes stop, and the kernel must stop at the same degree with the same size.
_REFERENCE_CAP = 200


@settings(deadline=None, max_examples=200)
@given(kernel_rows())
def test_hilbert_basis_kernel_matches_the_dict_reference(rows):
    try:
        basis, widest = _kernel_reference(rows, frontier_cap=_REFERENCE_CAP)
    except FrontierCapExceeded as exc:
        with pytest.raises(FrontierCapExceeded, match=re.escape(str(exc))):
            hilbert_basis_kernel(rows, frontier_cap=_REFERENCE_CAP)
        return
    got = hilbert_basis_kernel(rows, frontier_cap=widest).elements
    assert got == basis
    assert all(type(x) is int for v in got for x in v)


@pytest.mark.parametrize(
    "coeffs",
    [(13, 17, -23, -29), (2**25 * 13, 2**25 * 17, -(2**25) * 23, -(2**25) * 29), (2**62, 2**62, -(2**62))],
)
def test_hilbert_basis_kernel_past_int64(coeffs):
    """The int64 bound holds for the scaled row's first degrees only, so the values change dtype
    midway; the last row's products pass int64 at once, and int64 arrays would wrap them."""
    assert hilbert_basis_kernel(KernelInstance(coeffs)).elements == _kernel_reference([coeffs])[0]


def test_frontier_cap_is_the_widest_degree():
    inst = KernelInstance((13, 17, -23, -29))
    basis, widest = _kernel_reference([inst.coeffs])
    assert hilbert_basis_kernel(inst, frontier_cap=widest).elements == basis
    cap = widest - 1
    message = (
        rf"completion frontier reached {widest} points at degree \d+, past the cap of {cap} "
        r"\(the frontier_cap argument of hilbert_basis_kernel\)"
    )
    with pytest.raises(FrontierCapExceeded, match=message):
        hilbert_basis_kernel(inst, frontier_cap=cap)


@settings(deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda r: min(r) < 0 < max(r)))
def test_one_row_basis_degrees_are_at_most_lamberts_bound(row):
    g = gcd(*row)
    bound = max(row) // g + max(-x for x in row) // g
    assert max(map(sum, hilbert_basis_kernel(KernelInstance(tuple(row))))) <= bound


@settings(deadline=None)
@given(congruence_monoids(), st.integers(-1, 6))
@example(CongruenceMonoid(2, (Congruence((1, 2), 3),)), -1)
@example(CongruenceMonoid(0, (Congruence((), 2),)), -1)
@example(CongruenceMonoid(0, ()), 0)
@example(CongruenceMonoid(3, (Congruence((1, 1, 0), 2),)), 0)
def test_verify_cell_partition_counts_the_grid(m, bound):
    assume((bound + 1) ** m.dim <= 4096 and prod(m.generator_orders()) <= 20_000)
    grid = product(range(bound + 1), repeat=m.dim)
    assert verify_cell_partition(m, bound) == sum(map(m.contains, grid))


# Relation fibers: the move index against the all-pairs loop it replaced.
@st.composite
def fibered_bases(draw, low: int = 0) -> tuple[tuple, int]:
    dim = draw(st.integers(1, 3))
    vector = st.tuples(*[st.integers(low, 3)] * dim).filter(any)
    basis = draw(st.lists(vector, min_size=2, max_size=6, unique=True))
    return graded_lex_sorted(basis), draw(st.integers(1, 4))


def _joining(u: tuple, v: tuple) -> Binomial:
    w = tuple(map(min, u, v))
    return Binomial(tuple(a - c for a, c in zip(u, w)), tuple(b - c for b, c in zip(v, w))).canonical()


def _components_reference(facs: list, rels: list) -> list:
    """Every relation side tested against every factorization of the fiber."""
    index = {f: i for i, f in enumerate(facs)}
    parent = list(range(len(facs)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for f in facs:
        for rel in rels:
            for src, dst in ((rel.plus, rel.minus), (rel.minus, rel.plus)):
                if all(f[k] >= src[k] for k in range(len(f))):
                    f2 = tuple(f[k] - src[k] + dst[k] for k in range(len(f)))
                    if f2 in index:
                        parent[find(index[f2])] = find(index[f])
    comps: dict = {}
    for f in facs:
        comps.setdefault(find(index[f]), []).append(f)
    return sorted(sorted(c) for c in comps.values())


def _fibers_reference(basis: tuple, bound: int) -> list:
    """Each factorization's value summed from scratch."""
    by_value: dict = {}
    for d in range(1, bound + 1):
        for pick in combinations_with_replacement(range(len(basis)), d):
            c = tuple(pick.count(k) for k in range(len(basis)))
            value = tuple(sum(c[k] * basis[k][i] for k in range(len(basis))) for i in range(len(basis[0])))
            by_value.setdefault(value, []).append(c)
    out = [(val, sorted(facs)) for val, facs in by_value.items() if len(facs) > 1]
    return sorted(out, key=lambda kv: (min(sum(f) for f in kv[1]), sum(kv[0]), kv[0]))


def _relations_reference(basis: tuple, bound: int) -> tuple:
    """Regeneration recomputing every component with the all-pairs loop after each binomial."""
    rels: list = []
    for _, facs in _fibers_reference(basis, bound):
        comps = _components_reference(facs, rels)
        while len(comps) > 1:
            rels.append(_joining(comps[0][0], comps[1][0]))
            comps = _components_reference(facs, rels)
    return tuple(sorted(rels, key=lambda r: (r.degree(), r.plus, r.minus)))


class _CountingDict(dict):
    """A dict that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def _dense_listing(fibers) -> list:
    """The factorizations of each fiber of the packed listing, decoded to tuples."""
    return [[fibers.dense(fibers.keys[i]) for i in fiber] for _, fiber in fibers.listing()]


def _drawn_joinings(data, listing: list, most: int) -> list:
    """Up to most binomials, each joining two factorizations of a fiber."""
    rels = []
    for _ in range(data.draw(st.integers(0, most))):
        facs = data.draw(st.sampled_from(listing))
        i, j = data.draw(st.lists(st.integers(0, len(facs) - 1), min_size=2, max_size=2, unique=True))
        rels.append(_joining(facs[i], facs[j]))
    return rels


def _check_join(fibers, rels: list) -> None:
    """The join's partition is the reference's, its roots are the smallest members, and each
    fiber costs at most the smaller of its two enumerations in lookups: the sub-vectors of its
    factorizations, or the relation values."""
    moves = fibers.moves(rels)
    moves.sides = _CountingDict(moves.sides)
    fibers.by_value = _CountingDict(fibers.by_value)
    for value, fiber in fibers.listing():
        facs = [fibers.dense(fibers.keys[i]) for i in fiber]
        before = moves.sides.lookups + fibers.by_value.lookups
        parent = fibers.join(value, fiber, moves)
        lookups = moves.sides.lookups + fibers.by_value.lookups - before
        got: dict = {}
        for i, f in enumerate(facs):
            got.setdefault(relations._find(parent, i), []).append(f)
        assert sorted(got.values()) == _components_reference(facs, rels)
        assert all(comp[0] == facs[root] for root, comp in got.items())
        assert lookups <= min(sum(prod(e + 1 for e in f) for f in facs), len(moves.values))


@settings(deadline=None, max_examples=60)
@given(fibered_bases(), st.data())
def test_move_index_partition_matches_the_all_pairs_reference(case, data):
    basis, bound = case
    fibers = relations._Fibers(basis, bound, relations.DEFAULT_FIBER_CAP)
    listing = _dense_listing(fibers)
    assume(listing)
    _check_join(fibers, _drawn_joinings(data, listing, 6))


def test_move_index_on_few_generators_at_a_high_bound():
    # A2: 3 generators and 1 relation; a degree-30 factorization has up to 11^3 sub-vectors,
    # while the index has 1 relation value
    basis = graded_lex_sorted(((1, 1), (0, 3), (3, 0)))
    rels = relations_bounded(basis, 30)
    assert rels == _relations_reference(basis, 30)
    _check_join(relations._Fibers(basis, 30, relations.DEFAULT_FIBER_CAP), list(rels))


def test_move_index_on_many_relation_values_at_a_low_bound():
    # A4: 14 generators and 57 binomials up to degree 3; a factorization has at most 8
    # sub-vectors, so the small fibers are cheaper by sub-vectors than by relation values
    basis = report_A(5).hilbert_basis.elements
    rels = relations_bounded(basis, 3)
    assert len({relations._value(basis, r.plus) for r in rels}) > 16
    _check_join(relations._Fibers(basis, 3, relations.DEFAULT_FIBER_CAP), list(rels))


@settings(deadline=None, max_examples=60)
@given(fibered_bases())
def test_relations_bounded_matches_the_all_pairs_regeneration(case):
    basis, bound = case
    fibers = relations._Fibers(basis, bound, relations.DEFAULT_FIBER_CAP)
    listing = _dense_listing(fibers)
    assert [(relations._value(basis, facs[0]), facs) for facs in listing] == _fibers_reference(basis, bound)
    rels = relations_bounded(basis, bound)
    assert all(verify_relation(basis, r) for r in rels)
    assert rels == _relations_reference(basis, bound)


@settings(deadline=None, max_examples=60)
@given(fibered_bases(low=-3))
# a value radix of bound * max|entry| + 1, a quarter of the one used, gets this basis wrong
@example((graded_lex_sorted(((-3, 3, 3), (-2, 2, 4), (1, 4, -1), (2, 4, -2), (4, -2, 2))), 3))
def test_relations_bounded_matches_the_all_pairs_regeneration_on_signed_bases(case):
    # negative entries: value digits are balanced, and a move past the bound may carry into a
    # neighbouring digit of a packed factorization
    basis, bound = case
    try:
        want = _relations_reference(basis, bound)
    except ValueError:  # a fiber holds u <= v: the monoid is not pointed
        with pytest.raises(ValueError):
            relations_bounded(basis, bound)
        return
    listing = _dense_listing(relations._Fibers(basis, bound, relations.DEFAULT_FIBER_CAP))
    assert [(relations._value(basis, facs[0]), facs) for facs in listing] == _fibers_reference(basis, bound)
    assert relations_bounded(basis, bound) == want


def _same_partitions_reference(first: list, second: list, basis: tuple, bound: int) -> bool:
    return all(
        _components_reference(facs, first) == _components_reference(facs, second)
        for _, facs in _fibers_reference(basis, bound)
    )


@settings(deadline=None, max_examples=60)
@given(fibered_bases(), st.data())
def test_relations_equivalent_matches_the_all_pairs_reference(case, data):
    basis, bound = case
    listing = [facs for _, facs in _fibers_reference(basis, bound)]
    assume(listing)
    first = list(relations_bounded(basis, bound)) if data.draw(st.booleans()) else _drawn_joinings(data, listing, 5)
    if first and data.draw(st.booleans()):  # one binomial dropped
        second = first[:]
        del second[data.draw(st.integers(0, len(first) - 1))]
    else:
        second = _drawn_joinings(data, listing, 5)
    want = _same_partitions_reference(first, second, basis, bound)
    assert relations_equivalent(tuple(first), tuple(second), basis, bound) == want


def test_relations_equivalent_sees_a_single_split_fiber():
    # A3 at bound 4: some regenerated binomial, dropped, splits exactly one fiber
    basis = report_A(4).hilbert_basis.elements
    rels = list(relations_bounded(basis, 4))
    fibers = [facs for _, facs in _fibers_reference(basis, 4)]
    found = 0
    for k in range(len(rels)):
        dropped = rels[:k] + rels[k + 1 :]
        split = sum(_components_reference(facs, dropped) != _components_reference(facs, rels) for facs in fibers)
        if split == 1:
            found += 1
            assert not relations_equivalent(tuple(dropped), tuple(rels), basis, 4)
    assert found


# Laurent polynomials against a dict-of-tuples reference.  Exponents beyond +-2^63 and
# coefficients whose absolute sums multiply past 2^63 push the kernel onto Python ints.
_EXPONENT = st.one_of(st.integers(-4, 4), st.sampled_from((2**62, -(2**63) - 3, 2**64 + 1, -(2**70))))
_COEFF = st.one_of(st.integers(-5, 5), st.sampled_from((2**31 + 1, -(2**40), 2**62, 2**63 + 7)))


@st.composite
def laurent_cases(draw):
    ring = ExponentLattice(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    exponents = st.tuples(*[_EXPONENT] * ring.dim)
    polys = [draw(st.dictionaries(exponents, _COEFF, max_size=6)) for _ in range(2)]
    return ring, polys


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return out


def _apply(w: WeylElement, e: tuple) -> tuple:
    """Reference: the matrix of w times the column vector e."""
    return tuple(sum(a * b for a, b in zip(row, e)) for row in w.matrix)


def _ref_render(ring: ExponentLattice, terms: dict) -> str:
    bits = []
    for exp, c in sorted((e, c) for e, c in terms.items() if c):
        factors = []
        for j, e in enumerate(exp, start=1):
            if e == 0:
                continue
            if e % ring.scale == 0:
                q = e // ring.scale
                factors.append(f"x{j}" if q == 1 else f"x{j}^{q}")
            else:
                fr = Fraction(e, ring.scale)
                factors.append(f"x{j}^({fr.numerator}/{fr.denominator})")
        mon = "*".join(factors)
        bits.append(str(c) if not mon else mon if c == 1 else f"{c}*{mon}")
    return " + ".join(bits) or "0"


def _agrees(p: LaurentPoly, ref: dict) -> None:
    ref = {e: c for e, c in ref.items() if c}
    assert p.terms() == tuple(sorted(ref.items()))
    assert all(type(x) is int for e, c in p.terms() for x in (*e, c))
    assert p.nterms == len(ref)
    assert all(p.coefficient(e) == c for e, c in ref.items())
    assert render(p) == _ref_render(p.ring, ref)
    objects = LaurentPoly._new(p.ring, p._exps.astype(object), p._coeffs.astype(object))
    assert objects == p and p == objects and hash(objects) == hash(p)
    assert p == LaurentPoly(p.ring, ref) and hash(p) == hash(LaurentPoly(p.ring, ref))


@settings(deadline=None, max_examples=200)
@given(laurent_cases(), st.integers(-(2**40), 2**40), st.integers(0, 3), st.data())
def test_laurent_kernel_matches_the_dict_reference(case, k, power, data):
    ring, (a, b) = case
    pa, pb = LaurentPoly(ring, a), LaurentPoly(ring, b)
    _agrees(pa, a)
    _agrees(pa + pb, _ref_add(a, b))
    _agrees(pa - pb, _ref_add(a, b, -1))
    _agrees(-pa, {e: -c for e, c in a.items()})
    _agrees(pa * pb, _ref_mul(a, b))
    _agrees(pa * k, {e: c * k for e, c in a.items()})
    _agrees(k * pa, {e: c * k for e, c in a.items()})
    want = {(0,) * ring.dim: 1}
    for _ in range(power):
        want = _ref_mul(want, a)
    _agrees(pa**power, want)
    if sum(map(abs, a.values())) * sum(map(abs, b.values())) >= 2**63:
        assert (pa * pb)._coeffs.dtype == object
    n = ring.dim
    w = WeylElement(data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
    image: dict = {}
    for e, c in a.items():
        e2 = _apply(w, e)
        image[e2] = image.get(e2, 0) + c
    _agrees(act(w, pa), image)


@settings(deadline=None, max_examples=100)
@given(laurent_cases(), st.sampled_from((1, 3)))
def test_render_is_unchanged_across_row_blocks(case, rows):
    ring, (a, b) = case
    terms = _ref_mul(a, b)
    with patch.object(laurent, "_ROWS", rows):  # blocks of 1 and 3 terms
        assert render(LaurentPoly(ring, terms)) == _ref_render(ring, terms)


@st.composite
def banded_products(draw):
    """A short and a long polynomial (1 to 8 and 24 to 40 terms, more than 4 bands of at least 4
    pairs per row); when shared, the long one holds the inverse of every term of the short one,
    so that all their pairs share the key 0."""
    ring = ExponentLattice(draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    exponents = st.tuples(*[_EXPONENT] * ring.dim)
    short = draw(st.dictionaries(exponents, _COEFF, min_size=1, max_size=8))
    firsts = draw(st.lists(st.one_of(st.integers(-40, 40), _EXPONENT), min_size=24, max_size=40, unique=True))
    rests = draw(st.lists(st.tuples(*[_EXPONENT] * (ring.dim - 1)), min_size=len(firsts), max_size=len(firsts)))
    coeffs = draw(st.lists(_COEFF, min_size=len(firsts), max_size=len(firsts)))
    long = {(x, *rest): c for x, rest, c in zip(firsts, rests, coeffs)}
    if draw(st.booleans()):
        long.update({tuple(-x for x in e): draw(_COEFF) for e in short})
    return ring, short, long


@settings(deadline=None, max_examples=60)
@given(banded_products(), st.booleans())
def test_products_across_bands_match_the_dict_reference(case, objects):
    ring, a, b = case
    products = []
    # a band of 1, 2 or 5 pairs holds at least 4 per row; _INT64 at 0 puts every key on Python ints
    for block in (1, 2, 5):
        with patch.object(laurent, "_BLOCK", block), patch.object(laurent, "_INT64", 0 if objects else 2**63):
            pa, pb = LaurentPoly(ring, a), LaurentPoly(ring, b)
            products += [pa * pb, pb * pa]
    assert all(p._coeffs.dtype == object for p in products) or not objects
    assert all(p == products[0] for p in products)
    _agrees(products[0], _ref_mul(a, b))


def test_int64_and_object_arrays_hold_the_same_polynomial():
    ring = ExponentLattice(2, 2)
    p = LaurentPoly(ring, {(1, -2): 3, (0, 0): -1, (5, 5): 2**40})
    q = LaurentPoly._new(ring, p._exps.astype(object), p._coeffs.astype(object))
    assert p._coeffs.dtype == np.int64 and q._coeffs.dtype == object
    assert p == q and hash(p) == hash(q) and render(p) == render(q)
    assert p * q == q * p == p * p and (p - q).is_zero()
    # Coefficient sums whose product reaches 2^63 run on Python ints, and stay exact.
    big = LaurentPoly(ring, {(0, 1): 2**62, (1, 0): 2**62})
    sq = big * big
    assert sq._coeffs.dtype == object
    assert sq.coefficient((1, 1)) == 2**125 and sq.coefficient((0, 2)) == 2**124
    # A singular matrix merges terms: their sum 2^63 no longer fits in int64.
    assert act(WeylElement([[0, 0], [0, 0]]), big).terms() == (((0, 0), 2**63),)


# The CLI on drawn argv: an exit code of 0, 1 or 2, or argparse's SystemExit(2), never a traceback.
_CAP = st.one_of(st.integers(-3, -1), st.just(0), st.integers(1, 50), st.sampled_from(("1.5", "abc", "", "1e3")))


@st.composite
def cli_argvs(draw) -> list[str]:
    command = draw(st.sampled_from(("info", "classgroup", "invariants")))
    argv = [command, draw(st.sampled_from(("A", "B", "C", "D", "E", "F", "G", "H", "a", "E6", "F4", "G2", "Z9")))]
    if draw(st.booleans()):
        argv.append(str(draw(st.integers(-2, 4))))
    flags = {"classgroup": ["--group-cap"], "invariants": ["--box-cap", "--orbit-cap"]}.get(command, [])
    for flag in flags:
        if draw(st.booleans()):
            argv += [flag, str(draw(_CAP))]
    if command == "invariants" and draw(st.booleans()):
        argv.append("--expand")
    return argv


@settings(deadline=None, max_examples=60)
@given(cli_argvs())
def test_cli_exits_with_a_code_on_any_argv(argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 1, 2), argv
