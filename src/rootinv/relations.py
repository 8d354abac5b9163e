"""Binomial defining relations of monoid algebras, by fiber connectivity.

A relation is a binomial g^plus = g^minus between power products of the
Hilbert-basis generators.  Relation sets are regenerated degree by degree:
whenever two factorizations of the same monoid element are not yet joined
by the relations found so far, a connecting binomial is emitted.  Two
relation sets are considered equivalent when they induce identical
connected-component partitions on every factorization fiber up to the
degree bound.

Every factorization up to the bound is one integer key, sum f_k R^(g-1-k)
with R = bound + 1, so key order is the lexicographic order of exponent
vectors, and f - c + d is key(f) - key(c) + key(d) whenever its degree is
at most the bound.  Values are packed the same way, in digits wide enough
that V - u hits a value's key only when it is that value.  Tuples are
decoded only when a binomial is emitted.  A fiber's components live in one
union-find over the edges f -- f - c + d of the relations c - d found so
far, enumerated the cheaper of two ways, counted in dict lookups: each f's
prod(f_k + 1) sub-vectors looked up among the relation sides, or each
relation value u with the factorizations r of V - u, joining c + r and
d + r.  Each emitted binomial is then applied to its fiber alone.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from importlib import resources
from math import comb
from operator import eq, mul, sub
from typing import TYPE_CHECKING

from .errors import DimensionMismatch, FiberCapExceeded
from .intlinalg import IntVec
from .monoids import graded_lex_sorted

if TYPE_CHECKING:
    from .reports import InvariantReport

DEFAULT_FIBER_CAP = 2_000_000


@dataclass(frozen=True)
class Binomial:
    """Exponent vectors over a fixed generator list; supports are disjoint."""

    plus: IntVec
    minus: IntVec

    def __post_init__(self) -> None:
        if len(self.plus) != len(self.minus):
            raise DimensionMismatch("sides use different generator counts")
        if not any(self.plus) or not any(self.minus):
            raise ValueError("both sides must be nonempty")
        if any(a and b for a, b in zip(self.plus, self.minus)):
            raise ValueError("sides must have disjoint supports")

    def degree(self) -> int:
        return max(sum(self.plus), sum(self.minus))

    def canonical(self) -> "Binomial":
        a, b = self.plus, self.minus
        ka, kb = (sum(a), a), (sum(b), b)
        return self if ka >= kb else Binomial(b, a)

    def format(self) -> str:
        return f"{_side_str(self.plus)} = {_side_str(self.minus)}"


def _side_str(v: IntVec) -> str:
    bits = []
    for i, e in enumerate(v, start=1):
        if e == 1:
            bits.append(f"g{i}")
        elif e > 1:
            bits.append(f"g{i}^{e}")
    return "·".join(bits)


_TERM_RE = re.compile(r"g(\d+)(?:\^(\d+))?$")


def parse_binomial(line: str, ngens: int) -> Binomial:
    """Parse "g1^2·g3 = g2^4" (ASCII '*' is accepted as the separator)."""
    lhs, _, rhs = line.partition("=")
    if not rhs:
        raise ValueError(f"missing '=' in relation line: {line!r}")
    return Binomial(_parse_side(lhs, ngens), _parse_side(rhs, ngens)).canonical()


def _parse_side(s: str, ngens: int) -> IntVec:
    v = [0] * ngens
    for term in re.split(r"[·*]", s.strip()):
        term = term.strip()
        if not term:
            continue
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad term {term!r}")
        idx = int(m.group(1)) - 1
        if not 0 <= idx < ngens:
            raise ValueError(f"generator index out of range in {term!r}")
        v[idx] += int(m.group(2) or 1)
    return tuple(v)


def verify_relation(basis: tuple[IntVec, ...], rel: Binomial) -> bool:
    """Both sides evaluate to the same monoid element."""
    if len(rel.plus) != len(basis):
        raise DimensionMismatch("relation arity != basis size")
    return _value(basis, rel.plus) == _value(basis, rel.minus)


def _value(basis: tuple[IntVec, ...], c: tuple[int, ...]) -> IntVec:
    """The monoid element of the factorization c, the sum of c[k]·basis[k]."""
    return tuple(sum(map(mul, c, col)) for col in zip(*basis))


def _pack(v: Iterable[int], radix: int) -> int:
    """The digits v, most significant first, as one integer; a digit may be negative."""
    key = 0
    for x in v:
        key = key * radix + x
    return key


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass
class _Moves:
    """A relation set as moves on packed factorizations."""

    sides: dict[int, list[tuple[int, int]]] = field(default_factory=dict)  # c -> (d - c, |d| - |c|)
    values: dict[int, list[tuple[int, int, int, int]]] = field(default_factory=dict)  # u -> (c, d, |c|, |d|)


class _Fibers:
    """Every factorization of degree at most the bound, packed, and grouped by its packed value.

    A factorization f is the key sum f_k R^(g-1-k) with R = bound + 1, and
    keys[i], degs[i] are the key and degree of the i-th one enumerated
    (index 0 is the empty factorization).  A value V is packed in balanced
    digits of a radix above four times its largest coordinate, below a top
    digit holding its coordinate sum, so key order is (sum(V), V) and a
    difference V - u of two values hits a value's key only when it equals it.
    """

    def __init__(self, basis: tuple[IntVec, ...], bound: int, fiber_cap: int) -> None:
        g = len(basis)
        # the factorizations of degrees 1..bound: sum of comb(d + g - 1, g - 1), by the hockey-stick identity
        total = comb(bound + g, g) - 1
        if total > fiber_cap:
            msg = f"{total} factorizations at bound {bound}, fiber cap is {fiber_cap}"
            raise FiberCapExceeded(f"{msg}; lower --degree-bound")
        self.bound = bound
        self.powers = [(bound + 1) ** j for j in range(g)]
        radix = 4 * bound * max((abs(x) for b in basis for x in b), default=0) + 1
        self.weight = [_pack((sum(b), *b), radix) for b in basis]
        self.keys, self.degs = [0], [0]
        self.by_value: dict[int, list[int]] = {0: [0]}
        # depth first over the multisets of generators: (lowest generator still to add, degree, key, value)
        stack = [(0, 0, 0, 0)]
        while stack:
            low, d, f, v = stack.pop()
            for k in range(low, g):
                fk, vk = f + self.powers[g - 1 - k], v + self.weight[k]
                self.by_value.setdefault(vk, []).append(len(self.keys))
                self.keys.append(fk)
                self.degs.append(d + 1)
                if d + 1 < bound:
                    stack.append((k, d + 1, fk, vk))

    def listing(self) -> list[tuple[int, list[int]]]:
        """(value, factorization indices in key order) of each value with two or more, ordered
        by least degree, then value."""
        out = []
        for v, ix in self.by_value.items():
            facs = ix if v else ix[1:]  # the empty factorization belongs to no fiber
            if len(facs) > 1:
                facs.sort(key=self.keys.__getitem__)
                out.append((min(self.degs[i] for i in facs), v, facs))
        out.sort(key=lambda t: t[:2])
        return [(v, facs) for _, v, facs in out]

    def dense(self, f: int) -> tuple[int, ...]:
        return tuple(f // p % (self.bound + 1) for p in reversed(self.powers))

    def moves(self, rels: Iterable[Binomial], into: _Moves | None = None) -> _Moves:
        """The relations with both sides within the bound (no other joins two factorizations),
        added to into if given."""
        moves = into or _Moves()
        for rel in rels:
            dc, dd = sum(rel.plus), sum(rel.minus)
            if max(dc, dd) > self.bound:
                continue
            c, d = _pack(rel.plus, self.bound + 1), _pack(rel.minus, self.bound + 1)
            moves.sides.setdefault(c, []).append((d - c, dd - dc))
            moves.sides.setdefault(d, []).append((c - d, dc - dd))
            moves.values.setdefault(sum(map(mul, rel.plus, self.weight)), []).append((c, d, dc, dd))
        return moves

    def _digits(self, f: int) -> tuple[int, list[tuple[int, int]]]:
        """f's number of sub-vectors prod(f_k + 1), and (place, exponent) of each nonzero
        digit of f, read from the top."""
        count, out = 1, []
        while f:
            p = self.powers[bisect_right(self.powers, f) - 1]
            e, f = divmod(f, p)
            count *= e + 1
            out.append((p, e))
        return count, out

    def join(self, value: int, fiber: list[int], moves: _Moves, parent: list[int] | None = None) -> list[int]:
        """Union-find over the fiber of value, joining f and f - c + d for every move c -> d with c <= f.

        Every root is the smallest index of its set, so the roots name the
        partition and the components keep their order.  The edges come by
        sub-vectors or by relation values, whichever takes fewer lookups, and
        stop once the fiber is one component.
        """
        keys, degs, bound = self.keys, self.degs, self.bound
        parent = parent or list(range(len(fiber)))
        pos = {keys[i]: n for n, i in enumerate(fiber)}
        # the sub-vectors are counted only until they outnumber the relation values
        budget, spent, digits = len(moves.values), 0, []
        for i in fiber:
            if spent >= budget:
                break
            count, ds = self._digits(keys[i])
            spent += count
            digits.append(ds)

        def by_sub_vectors():
            for n, i in enumerate(fiber):
                f, room, subs = keys[i], bound - degs[i], [0]
                for p, e in digits[n]:
                    subs += [s + j for j in range(p, (e + 1) * p, p) for s in subs]
                for away in filter(None, map(moves.sides.get, subs)):
                    for step, rise in away:
                        if rise <= room and (m := pos.get(f + step)) is not None:
                            yield n, m

        def by_values():
            for u, rels in moves.values.items():
                for r in self.by_value.get(value - u, ()):
                    fr, room = keys[r], bound - degs[r]
                    for c, d, dc, dd in rels:
                        if dc <= room and dd <= room and (m := pos.get(fr + d)) is not None:
                            yield pos[fr + c], m

        roots = sum(map(eq, parent, range(len(parent))))
        for a, b in by_sub_vectors() if spent < budget else by_values():
            if roots == 1:
                break
            ra, rb = _find(parent, a), _find(parent, b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
                roots -= 1
        return parent


def relations_bounded(
    basis: tuple[IntVec, ...],
    degree_bound: int,
    fiber_cap: int = DEFAULT_FIBER_CAP,
) -> tuple[Binomial, ...]:
    """Deterministic generating set for all fiber identifications up to the bound."""
    fibers = _Fibers(graded_lex_sorted(basis), degree_bound, fiber_cap)
    rels: list[Binomial] = []
    moves = _Moves()
    for value, fiber in fibers.listing():
        parent = fibers.join(value, fiber, moves)
        for i in range(1, len(fiber)):
            if _find(parent, i) == 0:
                continue
            # join the two components with the smallest factorizations, u and fiber[i]
            u, v = fibers.dense(fibers.keys[fiber[0]]), fibers.dense(fibers.keys[fiber[i]])
            w = tuple(map(min, u, v))
            rel = Binomial(tuple(map(sub, u, w)), tuple(map(sub, v, w))).canonical()
            rels.append(rel)
            fibers.join(value, fiber, fibers.moves([rel]), parent)
            fibers.moves([rel], moves)
    return tuple(sorted(rels, key=lambda r: (r.degree(), r.plus, r.minus)))


def relations_equivalent(
    first: tuple[Binomial, ...],
    second: tuple[Binomial, ...],
    basis: tuple[IntVec, ...],
    degree_bound: int,
    fiber_cap: int = DEFAULT_FIBER_CAP,
) -> bool:
    """Same fiber partitions up to the bound."""
    if any(len(r.plus) != len(basis) for r in (*first, *second)):
        raise DimensionMismatch("relation arity != basis size")
    fibers = _Fibers(graded_lex_sorted(basis), degree_bound, fiber_cap)
    m1, m2 = fibers.moves(first), fibers.moves(second)
    for value, fiber in fibers.listing():
        p1, p2 = fibers.join(value, fiber, m1), fibers.join(value, fiber, m2)
        if any(_find(p1, i) != _find(p2, i) for i in range(len(fiber))):
            return False
    return True


@dataclass(frozen=True)
class RelationFixture:
    """A relation set frozen from a published presentation.

    The generator order of the source is recorded in the file header, so
    the binomials can be permuted onto any canonical basis ordering.
    """

    name: str
    generators: tuple[IntVec, ...]  # source ordering
    relations: tuple[Binomial, ...]  # over the source ordering

    def relabeled(self, target: tuple[IntVec, ...]) -> tuple[Binomial, ...]:
        """Re-express the relations over a different ordering of the same set."""
        if sorted(self.generators) != sorted(target):
            raise DimensionMismatch("fixture and target generator sets differ")
        src = {g: i for i, g in enumerate(self.generators)}
        order = [src[g] for g in target]
        out = [
            Binomial(tuple(r.plus[i] for i in order), tuple(r.minus[i] for i in order)).canonical()
            for r in self.relations
        ]
        return tuple(sorted(out, key=lambda r: (r.degree(), r.plus, r.minus)))


# Shipped relation fixtures, keyed by type name.
_FIXTURES = {"A2": "a2", "A3": "a3_magma", "E6": "e6_magma"}


def load_fixture(name: str) -> RelationFixture:
    """Load a named fixture shipped with the package."""
    text = resources.files("rootinv.fixtures").joinpath(f"{name}.relations").read_text()
    return parse_fixture(name, text)


def _relations_block(type_name: str, rep: InvariantReport, degree_bound: int | None) -> dict:
    """Binomial relations of the generators up to a degree bound, against the shipped fixture.

    The generators are the residual's Hilbert basis, or else the full one.  As
    M = Z+^free x M_res, the residual's basis is the basis elements that vanish
    on the free coordinates, projected onto the others.  The default bound is
    the fixture's highest relation degree (3 without a fixture).  Equivalence
    is claimed only at a bound that reaches every fixture relation.
    """
    name = _FIXTURES.get(type_name)
    fixture = load_fixture(name) if name else None
    top = max(r.degree() for r in fixture.relations) if fixture else 3
    bound = degree_bound or top
    free = rep.free_coordinates if rep.residual is not None else ()
    basis = graded_lex_sorted(
        tuple(x for i, x in enumerate(h) if i not in free)
        for h in rep.hilbert_basis
        if not any(h[i] for i in free)
    )
    rels = relations_bounded(basis, bound)
    block = {
        "degree_bound": bound,
        "generators": [list(v) for v in basis],
        "binomials": [r.format() for r in rels],
        "count": len(rels),
    }
    if fixture:
        fx = fixture.relabeled(basis)
        block["fixture"] = {
            "name": name,
            "relation_count": len(fx),
            "equivalent": bound >= top and relations_equivalent(rels, fx, basis, bound),
            "all_relations_verify": all(verify_relation(basis, r) for r in fx),
        }
    return block


def parse_fixture(name: str, text: str) -> RelationFixture:
    gens: tuple[IntVec, ...] | None = None
    rels: list[Binomial] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("generators:"):
            gens = tuple(
                tuple(int(x) for x in tok.split(",")) for tok in line[len("generators:") :].split()
            )
            continue
        if gens is None:
            raise ValueError("fixture must declare generators before relations")
        rels.append(parse_binomial(line, len(gens)))
    if gens is None:
        raise ValueError("fixture has no generator line")
    return RelationFixture(name, gens, tuple(rels))
