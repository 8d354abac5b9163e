"""Binomial defining relations of monoid algebras, by fiber connectivity.

A relation is a binomial g^plus = g^minus between power products of the
Hilbert-basis generators.  Relation sets are regenerated degree by degree:
whenever two factorizations of the same monoid element are not yet joined
by the relations found so far, a connecting binomial is emitted.  Two
relation sets are considered equivalent when they induce identical
connected-component partitions on every factorization fiber up to the
degree bound.

A degree-d factorization's value is its degree d-1 prefix's value plus one
generator.  A fiber's components live in one union-find, built once from a
move index, a dict from each relation side to its opposite sides.  For each
factorization f the index is either looked up by the prod(f_k + 1)
sub-vectors c <= f or scanned for the sides c <= f, whichever is shorter.
Each emitted binomial is then applied to its fiber alone.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from dataclasses import dataclass
from importlib import resources
from itertools import product
from math import comb, prod
from operator import add, le, mul, sub

from .errors import DimensionMismatch, FiberCapExceeded
from .intlinalg import IntVec
from .monoids import graded_lex_sorted

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


def _fibers(
    basis: tuple[IntVec, ...], degree_bound: int, fiber_cap: int
) -> list[tuple[IntVec, list[tuple[int, ...]]]]:
    g = len(basis)
    # the factorizations of degrees 1..bound: sum of comb(d + g - 1, g - 1), by the hockey-stick identity
    total = comb(degree_bound + g, g) - 1
    if total > fiber_cap:
        msg = f"{total} factorizations at bound {degree_bound}, fiber cap is {fiber_cap}"
        raise FiberCapExceeded(f"{msg}; lower --degree-bound")
    by_value: dict[IntVec, list[tuple[int, ...]]] = {}
    # depth first over the multisets of generators, each value its prefix's plus basis[k]:
    # (lowest generator still to add, degree, factorization, value)
    stack = [(0, 0, (0,) * g, (0,) * len(basis[0]))]
    while stack:
        low, d, c, v = stack.pop()
        for k in range(low, g):
            f, w = c[:k] + (c[k] + 1,) + c[k + 1 :], tuple(map(add, v, basis[k]))
            by_value.setdefault(w, []).append(f)
            if d + 1 < degree_bound:
                stack.append((k, d + 1, f, w))
    out = [(val, sorted(facs)) for val, facs in by_value.items() if len(facs) > 1]
    out.sort(key=lambda kv: (min(sum(f) for f in kv[1]), sum(kv[0]), kv[0]))
    return out


def _move_index(
    rels: Iterable[Binomial], moves: dict[IntVec, list[IntVec]] | None = None
) -> dict[IntVec, list[IntVec]]:
    """Each relation side -> the opposite sides it may be replaced by (added to moves if given)."""
    moves = {} if moves is None else moves
    for rel in rels:
        moves.setdefault(rel.plus, []).append(rel.minus)
        moves.setdefault(rel.minus, []).append(rel.plus)
    return moves


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _join(
    facs: list[tuple[int, ...]], moves: dict[IntVec, list[IntVec]], parent: list[int] | None = None
) -> list[int]:
    """Union-find over a sorted fiber, joining f and f - c + d for every move c -> d with c <= f.

    f - c + d has the value of f, so it is in the fiber unless its degree is
    above the bound.  Every root is the smallest index of its set, so the
    roots name the partition and the components keep their order.  Each f
    takes the shorter search: its prod(f_k + 1) sub-vectors looked up in the
    index, or the index's sides tested against f.
    """
    parent = parent or list(range(len(facs)))
    pos = {f: i for i, f in enumerate(facs)}
    below = [range(e + 1) for e in range(max(map(max, facs)) + 1)]  # below[e]: 0..e
    for i, f in enumerate(facs):
        spans = [below[e] for e in f]
        if prod(map(len, spans)) <= len(moves):
            sides = product(*spans)
        else:
            sides = (c for c in moves if all(map(le, c, f)))
        for c in sides:
            for d in moves.get(c, ()):
                j = pos.get(tuple(map(add, map(sub, f, c), d)))
                if j is not None:
                    ri, rj = _find(parent, i), _find(parent, j)
                    parent[max(ri, rj)] = min(ri, rj)
    return parent


def relations_bounded(
    basis: tuple[IntVec, ...],
    degree_bound: int,
    fiber_cap: int = DEFAULT_FIBER_CAP,
) -> tuple[Binomial, ...]:
    """Deterministic generating set for all fiber identifications up to the bound."""
    basis = graded_lex_sorted(basis)
    rels: list[Binomial] = []
    moves: dict[IntVec, list[IntVec]] = {}
    for _, facs in _fibers(basis, degree_bound, fiber_cap):
        parent = _join(facs, moves)
        u = facs[0]
        for i in range(1, len(facs)):
            if _find(parent, i) == 0:
                continue
            # join the two components with the smallest factorizations, u and facs[i]
            w = tuple(map(min, u, facs[i]))
            rel = Binomial(tuple(map(sub, u, w)), tuple(map(sub, facs[i], w))).canonical()
            rels.append(rel)
            _join(facs, _move_index([rel]), parent)
            _move_index([rel], moves)
    return tuple(sorted(rels, key=lambda r: (r.degree(), r.plus, r.minus)))


def relations_equivalent(
    first: tuple[Binomial, ...],
    second: tuple[Binomial, ...],
    basis: tuple[IntVec, ...],
    degree_bound: int,
    fiber_cap: int = DEFAULT_FIBER_CAP,
) -> bool:
    """Same fiber partitions up to the bound."""
    basis = graded_lex_sorted(basis)
    m1, m2 = _move_index(first), _move_index(second)
    for _, facs in _fibers(basis, degree_bound, fiber_cap):
        p1, p2 = _join(facs, m1), _join(facs, m2)
        if any(_find(p1, i) != _find(p2, i) for i in range(len(facs))):
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


def load_fixture(name: str) -> RelationFixture:
    """Load a named fixture shipped with the package."""
    text = resources.files("rootinv.fixtures").joinpath(f"{name}.relations").read_text()
    return parse_fixture(name, text)


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
