"""Sparse Laurent polynomials with exponents in a scaled integer lattice.

Exponent vectors are stored as integers equal to `scale` times the actual
(possibly fractional) exponent, so all arithmetic stays exact.  Two rings
are used in practice: simple-root coordinates (dimension = rank) for
invariant-theory work, and ambient coordinates for identities among
elementary symmetric polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch, RingMismatch
from .rootsystem import RootSystem
from .weyl import DEFAULT_ORBIT_CAP, WeylElement, orbit_weight_coords, simple_reflections

Q = Fraction

Exponent = tuple[int, ...]


@dataclass(frozen=True)
class ExponentLattice:
    """Exponents live in (1/scale) * Z^dim."""

    dim: int
    scale: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1 or self.scale < 1:
            raise ValueError("dimension and scale must be positive")


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: ExponentLattice, terms: Mapping[Exponent, int] | None = None):
        self.ring = ring
        clean: dict[Exponent, int] = {}
        for e, c in (terms or {}).items():
            if len(e) != ring.dim:
                raise DimensionMismatch("exponent arity != ring dimension")
            if c:
                clean[tuple(int(x) for x in e)] = int(c)
        self._terms = clean

    @staticmethod
    def zero(ring: ExponentLattice) -> "LaurentPoly":
        return LaurentPoly(ring)

    @staticmethod
    def constant(ring: ExponentLattice, c: int) -> "LaurentPoly":
        return LaurentPoly(ring, {(0,) * ring.dim: c})

    @staticmethod
    def monomial(ring: ExponentLattice, exponent: Sequence[int], coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(ring, {tuple(int(x) for x in exponent): coeff})

    def terms(self) -> tuple[tuple[Exponent, int], ...]:
        return tuple(sorted(self._terms.items()))

    def coefficient(self, exponent: Sequence[int]) -> int:
        return self._terms.get(tuple(int(x) for x in exponent), 0)

    @property
    def nterms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _check(self, other: "LaurentPoly") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} != {other.ring}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(self.ring, out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(self.ring, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ring, {e: -c for e, c in self._terms.items()})

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            return LaurentPoly(self.ring, {e: c * other for e, c in self._terms.items()})
        self._check(other)
        out: dict[Exponent, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined here")
        result = LaurentPoly.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self._terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for e, c in self.terms():
            bits.append(f"{c}*x^{e}")
        return " + ".join(bits)


def alpha_ring(rs: RootSystem) -> ExponentLattice:
    """Ring for exponents in simple-root coordinates, scaled by the weight denominators."""
    return ExponentLattice(rs.rank, rs.weight_scale)


def ambient_ring(rs: RootSystem, scale: int | None = None) -> ExponentLattice:
    return ExponentLattice(rs.ambient_dim, scale if scale is not None else rs.weight_scale)


def _weight_alpha_scaled(rs: RootSystem, m: Sequence[int], scale: int) -> Exponent:
    """scale * (alpha-coordinates of the weight with weight-coordinates m)."""
    out = []
    for i in range(rs.rank):
        c = sum((Q(mj) * rs.fundamental_weights_alpha[j][i] for j, mj in enumerate(m)), Q(0)) * scale
        if c.denominator != 1:
            raise DimensionMismatch("weight does not live in the scaled exponent lattice")
        out.append(int(c))
    return tuple(out)


def orbit_sum(rs: RootSystem, v: Sequence[Fraction | int], ring: ExponentLattice | None = None) -> LaurentPoly:
    """Sum of x^(w v) over the Weyl orbit of the weight v (ambient input).

    Exponents are simple-root coordinates times the ring scale.
    """
    ring = ring or alpha_ring(rs)
    vq = tuple(Q(x) for x in v)
    pair = rs.pairing_with_simple(vq)
    if any(p.denominator != 1 for p in pair):
        raise DimensionMismatch("orbit sums are defined for weight-lattice vectors")
    pts = orbit_weight_coords(rs, tuple(int(p) for p in pair))
    terms = {_weight_alpha_scaled(rs, m, ring.scale): 1 for m in pts}
    return LaurentPoly(ring, terms)


def orbit_sum_weight_coords(
    rs: RootSystem,
    m: Sequence[int],
    ring: ExponentLattice | None = None,
    cap: int = DEFAULT_ORBIT_CAP,
) -> LaurentPoly:
    """Orbit sum of the weight sum(m_i w_i), given directly in weight coordinates."""
    ring = ring or alpha_ring(rs)
    pts = orbit_weight_coords(rs, tuple(int(x) for x in m), cap)
    return LaurentPoly(ring, {_weight_alpha_scaled(rs, p, ring.scale): 1 for p in pts})


def orbit_sum_ambient(rs: RootSystem, v: Sequence[Fraction | int], ring: ExponentLattice) -> LaurentPoly:
    """Orbit sum with exponents in ambient coordinates (times ring scale)."""
    from .weyl import orbit

    terms: dict[Exponent, int] = {}
    for rv in orbit(rs, v).vectors:
        fr = rv.to_fractions()
        e = []
        for x in fr:
            xx = x * ring.scale
            if xx.denominator != 1:
                raise DimensionMismatch("orbit leaves the scaled ambient lattice")
            e.append(int(xx))
        terms[tuple(e)] = 1
    return LaurentPoly(ring, terms)


def act(w: WeylElement, p: LaurentPoly) -> LaurentPoly:
    """Transform exponents by w (simple-root-coordinate rings)."""
    if p.ring.dim != w.n:
        raise DimensionMismatch("element rank != ring dimension")
    out: dict[Exponent, int] = {}
    for e, c in p._terms.items():
        e2 = w.apply(e)
        out[e2] = out.get(e2, 0) + c
    return LaurentPoly(p.ring, out)


def is_invariant(rs: RootSystem, p: LaurentPoly) -> bool:
    """Invariance under W; checking the simple reflections suffices."""
    if p.ring.dim != rs.rank:
        raise DimensionMismatch("polynomial ring does not match the root coordinates")
    return all(act(s, p) == p for s in simple_reflections(rs))


def elementary_symmetric(ring: ExponentLattice, n: int, i: int) -> LaurentPoly:
    """i-th elementary symmetric polynomial in x_1 .. x_n (ambient ring, scale s)."""
    from itertools import combinations

    terms: dict[Exponent, int] = {}
    for subset in combinations(range(n), i):
        e = [0] * ring.dim
        for k in subset:
            e[k] = ring.scale
        terms[tuple(e)] = 1
    return LaurentPoly(ring, terms)


def elementary_symmetric_identity_check(rs: RootSystem, i: int) -> bool:
    """For the rank-(n-1) symmetric family: orbit-sum of the i-th weight times
    the balancing monomial equals the i-th elementary symmetric polynomial."""
    if rs.rtype.family != "A":
        raise DimensionMismatch("identity is specific to the symmetric-group family")
    n = rs.ambient_dim
    ring = ExponentLattice(n, n)
    os = orbit_sum_ambient(rs, rs.fundamental_weights_ambient[i - 1], ring)
    shift = LaurentPoly.monomial(ring, (i,) * n)  # x^{(i/n, ..., i/n)} at scale n
    return os * shift == elementary_symmetric(ring, n, i)


def render(p: LaurentPoly, var: str = "x") -> str:
    """Human-readable form with exact (possibly fractional) exponents."""
    if p.is_zero():
        return "0"
    s = p.ring.scale
    bits = []
    for exp, c in p.terms():
        factors = []
        for j, e in enumerate(exp, start=1):
            if e == 0:
                continue
            if e % s == 0:
                q = e // s
                factors.append(f"{var}{j}" if q == 1 else f"{var}{j}^{q}")
            else:
                fr = Fraction(e, s)
                factors.append(f"{var}{j}^({fr.numerator}/{fr.denominator})")
        mon = "*".join(factors)
        if not mon:
            bits.append(str(c))
        elif c == 1:
            bits.append(mon)
        else:
            bits.append(f"{c}*{mon}")
    return " + ".join(bits)
