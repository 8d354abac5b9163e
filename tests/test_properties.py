"""Property tests for the two text formats (monoid instances, binomials), the box scan, the
box Hilbert basis and the Laurent kernel."""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootinv import cli
from rootinv.errors import DimensionMismatch
from rootinv.laurent import ExponentLattice, LaurentPoly, act, render
from rootinv.monoids import (
    Congruence,
    CongruenceMonoid,
    KernelInstance,
    box_elements,
    graded_lex_sorted,
    hilbert_basis_box,
    parse_instance,
)
from rootinv.relations import Binomial, parse_binomial
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
    if isinstance(inst, KernelInstance):
        return "ker: " + " ".join(str(c) for c in inst.coeffs) + "\n"
    return inst.serialize()


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
        e2 = w.apply(e)
        image[e2] = image.get(e2, 0) + c
    _agrees(act(w, pa), image)


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
