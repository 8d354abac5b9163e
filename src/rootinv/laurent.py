"""Sparse Laurent polynomials with exponents in a scaled integer lattice.

Exponent vectors are stored as integers equal to `scale` times the actual
(possibly fractional) exponent, so all arithmetic stays exact.  The
invariant-theory ring uses simple-root coordinates (dimension = rank).

A polynomial is a lexicographically sorted exponent array (T, dim) with a
coefficient array (T,).  Products, sums and Weyl actions pack each exponent
row into one mixed-radix key whose order is lex order, sort the keys and
add the coefficients of equal keys; a product does so one band of output
keys at a time (see _combine_products).  The arrays are int64 when
every key, exponent and coefficient sum provably fits, and otherwise the
same code runs on Python ints (`dtype=object`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, RingMismatch
from .rootsystem import RootSystem
from .weyl import DEFAULT_ORBIT_CAP, WeylElement, orbit_weight_coords, simple_reflections

Exponent = tuple[int, ...]

_INT64 = 2**63  # int64 holds exactly the integers of absolute value below this
_BLOCK = 1 << 14  # term pairs in one band of a product (at least 4 per row); bounds its working memory
_ROWS = 1 << 12  # terms render formats at once; bounds its working memory


@dataclass(frozen=True)
class ExponentLattice:
    """Exponents live in (1/scale) * Z^dim."""

    dim: int
    scale: int = 1

    def __post_init__(self) -> None:
        if self.dim < 1 or self.scale < 1:
            raise ValueError("dimension and scale must be positive")


def _abs_max(a: np.ndarray) -> int:
    return int(np.abs(a).max()) if a.size else 0


def _abs_sum(c: np.ndarray) -> int:
    """Sum of |c| as a Python int, with no int64 overflow."""
    if c.dtype != object and len(c) * _abs_max(c) < _INT64:
        return int(np.abs(c).sum())
    return int(np.abs(c.astype(object)).sum())


def _matmul(rows: np.ndarray, mat: Sequence[Sequence[int]]) -> np.ndarray:
    """Exact rows @ mat: in int64 when no entry can overflow, else in Python ints."""
    bound = _abs_max(rows) * max(1, *(sum(map(abs, col)) for col in zip(*mat)))
    dtype = np.int64 if bound < _INT64 else object
    return rows.astype(dtype) @ np.array(mat, dtype=dtype)


class _Radix:
    """Mixed-radix keys of the exponent rows in the box [lo, hi]; key order is lex order.

    `dtype` is int64 when every key, every value in `bounds` and every
    coefficient up to `coeff_bound` fits in int64, and object otherwise.
    """

    def __init__(self, lo: list[int], hi: list[int], coeff_bound: int, bounds: Iterable[int] = ()):
        self.lo = lo
        self.widths = [h - l + 1 for l, h in zip(lo, hi)]
        self.strides = [prod(self.widths[j + 1 :]) for j in range(len(lo))]
        fits = prod(self.widths) < _INT64 and coeff_bound < _INT64
        fits = fits and all(-_INT64 < v < _INT64 for v in (*lo, *hi, *bounds))
        self.dtype = np.dtype(np.int64 if fits else object)

    def _row(self, values: list[int]) -> np.ndarray:
        return np.array(values, dtype=self.dtype)

    def keys(self, exps: np.ndarray, lo: list[int]) -> np.ndarray:
        """Keys of the rows of exps, offset by lo instead of self.lo (for factors of a product)."""
        return (exps.astype(self.dtype) - self._row(lo)) @ self._row(self.strides)

    def rows(self, keys: np.ndarray) -> np.ndarray:
        out = keys[:, None] // self._row(self.strides)
        out %= self._row(self.widths)
        out += self._row(self.lo)
        return out


def _combine(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Add the coefficients of equal keys; return the keys in increasing order and the nonzero sums."""
    if not len(keys):
        return keys, coeffs
    order = np.argsort(keys)
    keys = keys[order]
    coeffs = coeffs[order]
    del order
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(coeffs, starts)
    keep = sums != 0
    return keys[starts[keep]], sums[keep]


def _combine_products(ka: np.ndarray, ca: np.ndarray, kb: np.ndarray, cb: np.ndarray):
    """_combine of all pairs (ka_i + kb_j, ca_i * cb_j), one band of output keys at a time.

    The shorter operand gives the rows.  Both key arrays increase, so the
    pairs of row i whose key lies in a band [k0, k1) are the slice
    searchsorted(long, k0 - short_i) : searchsorted(long, k1 - short_i) of
    the longer one; a band's pairs are counted before they are formed, and
    each band is combined once.  The bands are disjoint and in key order, so
    their results are concatenated, never merged again: the product comes
    out in output order (Johnson, SIGSAM Bull. 8(3), 1974; Monagan and
    Pearce, ISSAC 2009).  Band edges are quantiles of a strided sample of
    the pair keys, and a band that holds over 4 times its target is halved.
    """
    if len(ka) > len(kb):
        ka, ca, kb, cb = kb, cb, ka, ca
    band = max(_BLOCK, 4 * len(ka))  # a band pays O(rows) for its slices
    pairs = len(ka) * len(kb)
    if pairs <= 4 * band:
        return _combine(np.add.outer(ka, kb).ravel(), np.multiply.outer(ca, cb).ravel())
    # at most 256 rows and about min(2^16, pairs / 16) keys in the sample, each standing
    # for step_a * step_b pairs
    step_a = -(-len(ka) // 256)
    sampled_rows = ka[::step_a]
    step_b = -(-len(kb) * len(sampled_rows) // min(1 << 16, pairs >> 4))
    sample = np.sort(np.add.outer(sampled_rows, kb[::step_b]), axis=None)
    per_band = max(1, band // (step_a * step_b))
    first, last = ka[0] + kb[0], ka[-1] + kb[-1] + 1
    edges = [k for k in np.unique(sample[per_band::per_band]).tolist() if first < k < last]
    del sample
    pending = [last, *reversed(edges)]  # upper band edges, the next one last
    k0, lo, row = first, np.zeros(len(ka), dtype=np.intp), np.arange(len(ka))
    keys, coeffs = [ka[:0]], [ca[:0]]
    while pending:
        k1 = pending.pop()
        hi = np.searchsorted(kb, k1 - ka)
        counts = hi - lo
        n = int(counts.sum())
        if n > 4 * band and k1 - k0 > 1:
            pending += [k1, k0 + (k1 - k0) // 2]
            continue
        if n:
            rows = np.repeat(row, counts)
            cols = np.arange(n) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
            k, c = _combine(ka[rows] + kb[cols], ca[rows] * cb[cols])
            keys.append(k)
            coeffs.append(c)
        k0, lo = k1, hi
    return np.concatenate(keys), np.concatenate(coeffs)


def _normal(exps: np.ndarray, coeffs: np.ndarray, coeff_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, combined, zero-free arrays for the terms (exps, coeffs).

    coeff_bound bounds |the sum of the coefficients of any one exponent|.
    """
    if not len(coeffs):
        return exps, coeffs
    lo, hi = exps.min(axis=0).tolist(), exps.max(axis=0).tolist()
    radix = _Radix(lo, hi, coeff_bound)
    keys, coeffs = _combine(radix.keys(exps, lo), coeffs.astype(radix.dtype))
    return radix.rows(keys), coeffs


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("ring", "_exps", "_coeffs")

    def __init__(self, ring: ExponentLattice, terms: Mapping[Exponent, int] | None = None):
        items = list((terms or {}).items())
        if any(len(e) != ring.dim for e, _ in items):
            raise DimensionMismatch("exponent arity != ring dimension")
        exps = np.array([[int(x) for x in e] for e, _ in items], dtype=object).reshape(len(items), ring.dim)
        coeffs = np.array([int(c) for _, c in items], dtype=object)
        self.ring = ring
        self._exps, self._coeffs = _normal(exps, coeffs, _abs_sum(coeffs))

    @staticmethod
    def _new(ring: ExponentLattice, exps: np.ndarray, coeffs: np.ndarray) -> "LaurentPoly":
        p = object.__new__(LaurentPoly)
        p.ring, p._exps, p._coeffs = ring, exps, coeffs
        return p

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
        return tuple(zip(map(tuple, self._exps.tolist()), self._coeffs.tolist()))

    def coefficient(self, exponent: Sequence[int]) -> int:
        e = tuple(int(x) for x in exponent)
        rows = self._exps
        i = bisect_left(range(len(rows)), e, key=lambda k: tuple(rows[k].tolist()))
        return int(self._coeffs[i]) if i < len(rows) and tuple(rows[i].tolist()) == e else 0

    @property
    def nterms(self) -> int:
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not len(self._coeffs)

    def _box(self) -> tuple[list[int], list[int]]:
        return self._exps.min(axis=0).tolist(), self._exps.max(axis=0).tolist()

    def _check(self, other: "LaurentPoly") -> None:
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} != {other.ring}")

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        self._check(other)
        exps = np.concatenate((self._exps, other._exps))
        coeffs = np.concatenate((self._coeffs, sign * other._coeffs))
        bound = _abs_max(self._coeffs) + _abs_max(other._coeffs)
        return LaurentPoly._new(self.ring, *_normal(exps, coeffs, bound))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._new(self.ring, self._exps, -self._coeffs)

    def __mul__(self, other: "LaurentPoly | int") -> "LaurentPoly":
        if isinstance(other, int):
            if not other:
                return LaurentPoly(self.ring)
            dtype = np.int64 if _abs_max(self._coeffs) * abs(other) < _INT64 else object
            return LaurentPoly._new(self.ring, self._exps, self._coeffs.astype(dtype) * other)
        self._check(other)
        if self.is_zero() or other.is_zero():
            return LaurentPoly(self.ring)
        (lo_a, hi_a), (lo_b, hi_b) = self._box(), other._box()
        radix = _Radix(
            [x + y for x, y in zip(lo_a, lo_b)],
            [x + y for x, y in zip(hi_a, hi_b)],
            _abs_sum(self._coeffs) * _abs_sum(other._coeffs),
            (*lo_a, *hi_a, *lo_b, *hi_b),
        )
        keys, coeffs = _combine_products(
            radix.keys(self._exps, lo_a),
            self._coeffs.astype(radix.dtype),
            radix.keys(other._exps, lo_b),
            other._coeffs.astype(radix.dtype),
        )
        return LaurentPoly._new(self.ring, radix.rows(keys), coeffs)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        if k < 0:
            raise ValueError("negative powers of polynomials are not defined here")
        if k == 0:
            return LaurentPoly.constant(self.ring, 1)
        # One factor at a time: for sparse factors, k - 1 products with the short base
        # form far fewer term pairs than squaring the long intermediate powers.
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self._exps.shape == other._exps.shape
            and np.array_equal(self._coeffs, other._coeffs)
            and np.array_equal(self._exps, other._exps)
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.terms()))

    def __repr__(self) -> str:
        return " + ".join(f"{c}*x^{e}" for e, c in self.terms()) or "0"


def alpha_ring(rs: RootSystem) -> ExponentLattice:
    """Ring for exponents in simple-root coordinates, scaled by the weight denominators."""
    return ExponentLattice(rs.rank, rs.weight_scale)


def _weight_orbit_sum(rs: RootSystem, points: Iterable[Sequence[int]], ring: ExponentLattice) -> LaurentPoly:
    """Sum of x^(ring.scale * alpha-coordinates) over weights given in weight coordinates.

    The weights go to alpha-coordinates through the one integer matrix
    rs.weights = |P/Q| * (fundamental weights in alpha-coordinates).
    """
    pts = np.array(list(points), dtype=object)
    exps = _matmul(pts, [[x * ring.scale for x in row] for row in rs.weights.tolist()])
    if (exps % rs.index).any():
        raise DimensionMismatch("weight does not live in the scaled exponent lattice")
    return LaurentPoly._new(ring, *_normal(exps // rs.index, np.ones(len(exps), dtype=exps.dtype), 1))


def orbit_sum(rs: RootSystem, v: Sequence[Fraction | int], ring: ExponentLattice | None = None) -> LaurentPoly:
    """Sum of x^(w v) over the Weyl orbit of the weight v (ambient input).

    Exponents are simple-root coordinates times the ring scale.
    """
    vq = tuple(Fraction(x) for x in v)
    pair = rs.pairing_with_simple(vq)
    if any(p.denominator != 1 for p in pair):
        raise DimensionMismatch("orbit sums are defined for weight-lattice vectors")
    pts = orbit_weight_coords(rs, tuple(int(p) for p in pair))
    return _weight_orbit_sum(rs, pts, ring or alpha_ring(rs))


def orbit_sum_weight_coords(
    rs: RootSystem,
    m: Sequence[int],
    ring: ExponentLattice | None = None,
    cap: int = DEFAULT_ORBIT_CAP,
) -> LaurentPoly:
    """Orbit sum of the weight sum(m_i w_i), given directly in weight coordinates."""
    pts = orbit_weight_coords(rs, tuple(int(x) for x in m), cap)
    return _weight_orbit_sum(rs, pts, ring or alpha_ring(rs))


def act(w: WeylElement, p: LaurentPoly) -> LaurentPoly:
    """Transform exponents by w (simple-root-coordinate rings): one matrix product."""
    if p.ring.dim != w.n:
        raise DimensionMismatch("element rank != ring dimension")
    exps = _matmul(p._exps, list(zip(*w.matrix)))
    return LaurentPoly._new(p.ring, *_normal(exps, p._coeffs, _abs_sum(p._coeffs)))


def is_invariant(rs: RootSystem, p: LaurentPoly) -> bool:
    """Invariance under W; checking the simple reflections suffices."""
    if p.ring.dim != rs.rank:
        raise DimensionMismatch("polynomial ring does not match the root coordinates")
    return all(act(s, p) == p for s in simple_reflections(rs))


def _power(j: int, e: int, s: int) -> str:
    """'*' and the factor of coordinate j for the scaled exponent e, or '' when e is 0."""
    if e == 0:
        return ""
    if e % s == 0:
        q = e // s
        return f"*x{j}" if q == 1 else f"*x{j}^{q}"
    fr = Fraction(e, s)
    return f"*x{j}^({fr.numerator}/{fr.denominator})"


def _lookup(column: np.ndarray, text, lead: np.ndarray | None = None) -> np.ndarray:
    """text(value) for each entry of column, built once per distinct value; where lead holds,
    without its first character."""
    values, index = np.unique(column, return_inverse=True)
    table = [text(v) for v in values.tolist()]
    if lead is None:
        return np.array(table, dtype=object)[index]
    return np.array(table + [t[1:] for t in table], dtype=object)[index + len(table) * lead]


def render(p: LaurentPoly) -> str:
    """Human-readable form in x1, ..., xn with exact (possibly fractional) exponents."""
    if p.is_zero():
        return "0"
    s = p.ring.scale
    return " + ".join(
        _render_rows(p._exps[i : i + _ROWS], p._coeffs[i : i + _ROWS], s) for i in range(0, p.nterms, _ROWS)
    )


def _render_pieces(p: LaurentPoly) -> Iterator[str]:
    """render(p) in pieces: the renders of consecutive _ROWS-term slices, with ' + ' between them."""
    for i in range(0, max(p.nterms, 1), _ROWS):
        if i:
            yield " + "
        yield render(LaurentPoly._new(p.ring, p._exps[i : i + _ROWS], p._coeffs[i : i + _ROWS]))


def _render_rows(exps: np.ndarray, coeffs: np.ndarray, s: int) -> str:
    """The terms (exps, coeffs) at exponent scale s, joined by ' + '."""
    nonzero = exps != 0
    first = nonzero.argmax(axis=1)  # the first factor of a monomial has no leading '*'
    bits = _lookup(coeffs, lambda c: "" if c == 1 else f"{c}*")
    for j, column in enumerate(exps.T):
        np.add(bits, _lookup(column, lambda e: _power(j + 1, e, s), first == j), out=bits)
    const = np.flatnonzero(~nonzero.any(axis=1))
    bits[const] = [str(c) for c in coeffs[const].tolist()]
    return " + ".join(bits.tolist())
