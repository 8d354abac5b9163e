"""Property tests for the two text formats (monoid instances, binomials) and the box scan."""

from __future__ import annotations

from itertools import product
from math import prod

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rootinv.errors import DimensionMismatch
from rootinv.monoids import (
    Congruence,
    CongruenceMonoid,
    KernelInstance,
    box_elements,
    graded_lex_sorted,
    parse_instance,
)
from rootinv.relations import Binomial, parse_binomial

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
