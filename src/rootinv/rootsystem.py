"""Irreducible crystallographic root systems in Bourbaki coordinates.

Ambient dimensions: the rank-(n-1) symmetric-group family sits in R^n, the
B/C/D families in R^n, G2 in R^3, F4 in R^4 and E6/E7/E8 in R^8.  Simple
bases follow the Bourbaki planches, so every downstream index (weights,
congruence coefficients, generator orders) is in Bourbaki order.  The
roots are the Weyl orbits of the simple roots, walked on one canonical-parent
tree with no deduplication and kept as one integer table of simple-root
coordinates, and |W| = n! * |P/Q| * prod(m_i) over the coefficients m_i of
the highest root (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, 2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidRank
from .intlinalg import IntMatrix, QVec, RatVector, scaled_inverse

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
ROOT_TABLE_LIMIT = 1 << 24  # |Phi| * rank entries of the root table; A255 and B, C, D203 are the largest types within it

Q = Fraction


@dataclass(frozen=True)
class RootSystemType:
    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidRank(f"unknown family {self.family!r}")
        fam, n = self.family, self.rank
        ok = (
            (fam == "A" and n >= 1)
            or (fam == "B" and n >= 2)
            or (fam == "C" and n >= 2)
            or (fam == "D" and n >= 3)
            or (fam == "E" and n in (6, 7, 8))
            or (fam == "F" and n == 4)
            or (fam == "G" and n == 2)
        )
        if not ok:
            raise InvalidRank(f"{fam}_{n} is not an irreducible type handled here")
        # |Phi| = rank * h for the Coxeter number h (Bourbaki, Ch. VI, 1.11 and the planches)
        h = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2, "F": 12, "G": 6}.get(fam) or {6: 12, 7: 18, 8: 30}[n]
        if n * h * n > ROOT_TABLE_LIMIT:
            raise InvalidRank(
                f"{fam}_{n}: its root table holds |Phi| * rank = {n * h * n} entries, beyond the limit {ROOT_TABLE_LIMIT}"
            )
        if fam == "C" and n == 2:
            warnings.warn("C_2 is isomorphic to B_2", stacklevel=3)
        if fam == "D" and n == 3:
            warnings.warn("D_3 is isomorphic to A_3", stacklevel=3)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(family: str, rank: int | None = None) -> "RootSystemType":
        """Accept ('A', 2) or a fused token like 'E6' / 'a2'."""
        fam = family.strip().upper()
        if rank is None:
            if len(fam) < 2 or not fam[1:].isdigit():
                raise InvalidRank(f"cannot parse type {family!r}")
            fam, rank = fam[0], int(fam[1:])
        return RootSystemType(fam, int(rank))


def _dot(u: QVec, v: QVec) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Q(0))


def _pairing(beta: QVec, alpha: QVec) -> Fraction:
    """Cartan pairing <beta, alpha^vee> = 2(beta, alpha)/(alpha, alpha)."""
    return 2 * _dot(beta, alpha) / _dot(alpha, alpha)


@dataclass(frozen=True)
class RootSystem:
    """Computed root-system data; build via :func:`build`."""

    rtype: RootSystemType
    ambient_dim: int
    simple_roots: tuple[QVec, ...]
    roots: tuple[QVec, ...]
    root_coords: np.ndarray = field(compare=False)  # row k: simple-root coordinates of roots[k]
    gram: np.ndarray = field(compare=False)  # den^2 (alpha_i, alpha_j), den clearing the simple roots
    cartan: IntMatrix  # entry (i, j) = <alpha_j, alpha_i^vee>
    fundamental_weights_ambient: tuple[QVec, ...]
    fundamental_weights_alpha: tuple[QVec, ...]
    weight_orders: tuple[int, ...]  # order of each weight in weight/root quotient
    weyl_order: int

    @property
    def rank(self) -> int:
        return self.rtype.rank

    @property
    def weight_scale(self) -> int:
        """Lcm of all alpha-coordinate denominators of fundamental weights."""
        return lcm(*self.weight_orders)

    def pairing_with_simple(self, v: QVec) -> tuple[Fraction, ...]:
        return tuple(_pairing(v, a) for a in self.simple_roots)

    def alpha_coords(self, v: QVec) -> QVec:
        """Coordinates of the span-component of v in the simple-root basis."""
        pair = self.pairing_with_simple(v)
        return tuple(
            sum((w[i] * p for w, p in zip(self.fundamental_weights_alpha, pair)), Q(0))
            for i in range(self.rank)
        )

    def span_component(self, v: QVec) -> QVec:
        c = self.alpha_coords(v)
        out = [Q(0)] * self.ambient_dim
        for ci, a in zip(c, self.simple_roots):
            for k in range(self.ambient_dim):
                out[k] += ci * a[k]
        return tuple(out)

    def from_weight_coords(self, m) -> QVec:
        out = [Q(0)] * self.ambient_dim
        for mi, w in zip(m, self.fundamental_weights_ambient):
            for k in range(self.ambient_dim):
                out[k] += Q(mi) * w[k]
        return tuple(out)


def _basis(n: int, i: int) -> list[Fraction]:
    e = [Q(0)] * n
    e[i] = Q(1)
    return e


def _simple_roots(t: RootSystemType) -> tuple[int, list[QVec]]:
    fam, n = t.family, t.rank
    if fam == "A":
        dim = n + 1
        alphas = [tuple(Q(x) for x in _vec_sub(_basis(dim, i), _basis(dim, i + 1))) for i in range(n)]
    elif fam in ("B", "C", "D"):
        dim = n
        alphas = [tuple(Q(x) for x in _vec_sub(_basis(dim, i), _basis(dim, i + 1))) for i in range(n - 1)]
        if fam == "B":
            alphas.append(tuple(_basis(dim, n - 1)))
        elif fam == "C":
            alphas.append(tuple(2 * x for x in _basis(dim, n - 1)))
        else:
            last = _basis(dim, n - 2)
            alphas.append(tuple(a + b for a, b in zip(last, _basis(dim, n - 1))))
    elif fam == "G":
        dim = 3
        alphas = [
            (Q(1), Q(-1), Q(0)),
            (Q(-2), Q(1), Q(1)),
        ]
    elif fam == "F":
        dim = 4
        alphas = [
            (Q(0), Q(1), Q(-1), Q(0)),
            (Q(0), Q(0), Q(1), Q(-1)),
            (Q(0), Q(0), Q(0), Q(1)),
            (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2)),
        ]
    else:  # E6 / E7 / E8
        dim = 8
        a1 = [Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)]
        a2 = [Q(1), Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)]
        alphas = [tuple(a1), tuple(a2)]
        for i in range(3, n + 1):
            v = _vec_sub(_basis(dim, i - 2), _basis(dim, i - 3))
            alphas.append(tuple(Q(x) for x in v))
    return dim, alphas


def _vec_sub(u, v):
    return [a - b for a, b in zip(u, v)]


def dominant(cartan_rows, m: Sequence) -> tuple:
    """The dominant point of the W-orbit of m, given in weight coordinates.

    s_i acts by m_j -> m_j - m_i * cartan[j][i].  Reflecting in a negative
    coordinate adds -m_i * alpha_i, so the point rises until it is dominant.
    """
    m = tuple(m)
    while any(x < 0 for x in m):
        i = next(i for i, x in enumerate(m) if x < 0)
        mi = m[i]
        m = tuple(a - mi * row[i] for a, row in zip(m, cartan_rows))
    return m


def orbit_tree(cartan_rows, top: Sequence) -> Iterator[tuple]:
    """Each point of the W-orbit of the dominant point top, once, level by level.

    Every other point mu has one canonical parent s_i mu, where i is the
    first negative coordinate of mu (its first descent; Casselman, Invent.
    Math. 116, 1994).  So the children of mu are the s_i mu with mu_i > 0
    whose coordinates 0..i-1 are all nonnegative.  A point is yielded before
    its children are built, so a caller that stops early has built no more
    than the children of the points it has seen.
    """
    cols = tuple(zip(*cartan_rows))
    level = [tuple(top)]
    while level:
        children = []
        for mu in level:
            yield mu
            for i, mi in enumerate(mu):
                if mi > 0:
                    nu = tuple(a - mi * c for a, c in zip(mu, cols[i]))
                    if min(nu[:i], default=0) >= 0:
                        children.append(nu)
        level = children


def _over(nums: list[list[int]], den: int) -> tuple[QVec, ...]:
    """The rows of the integer matrix nums divided by den, as Fractions."""
    frac = {x: Q(x, den) for x in {x for row in nums for x in row}}  # a few distinct values
    return tuple(tuple(frac[x] for x in row) for row in nums)


def build(t: RootSystemType | str, rank: int | None = None) -> RootSystem:
    """Construct the root system with all derived weight data.

    Raises AssertionError unless |Phi| = rank * h, where h = ht(theta) + 1 is
    the Coxeter number of the highest root theta (Bourbaki, Ch. VI, 1.11).
    """
    if isinstance(t, str):
        t = RootSystemType.parse(t, rank)
    dim, alphas = _simple_roots(t)
    n = t.rank
    den = lcm(*(x.denominator for a in alphas for x in a))
    simple = np.array([[int(x * den) for x in a] for a in alphas], dtype=np.int64)  # den * alpha_i
    gram = simple @ simple.T
    # entry (i, j) = <alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i)
    cartan_rows = (2 * gram // gram.diagonal()[:, None]).tolist()
    cartan = IntMatrix.from_rows(cartan_rows)

    # fundamental weights: rows of the inverse transposed Cartan matrix are
    # the alpha-coordinates (so that <w_i, alpha_j^vee> = delta_ij)
    f, scaled = scaled_inverse(cartan)  # f = det(cartan) = |P/Q|, and f * cartan^{-1}
    adj_t = np.array(scaled.transpose().rows, dtype=np.int64)  # f * walpha, integral
    walpha = _over(adj_t.tolist(), f)

    # roots: the orbits of the simple roots, whose weight coordinates are the
    # Cartan columns; W is transitive on the roots of each length
    by_length = {g: i for i, g in enumerate(gram.diagonal().tolist())}
    tops = [dominant(cartan_rows, [row[j] for row in cartan_rows]) for j in by_length.values()]
    pts = np.array([m for top in tops for m in orbit_tree(cartan_rows, top)], dtype=np.int64)
    coords = pts @ adj_t // f  # simple-root coordinates; every root lies in Q
    highest = coords[coords.sum(axis=1).argmax()].tolist()  # the root of greatest height
    expected = n * (sum(highest) + 1)
    if len(coords) != expected:
        raise AssertionError(f"{t.name}: {len(coords)} roots, but rank * (ht(theta) + 1) = {expected}")
    for table in (coords, gram):  # a RootSystem may be shared, so its arrays stay as built
        table.setflags(write=False)

    return RootSystem(
        rtype=t,
        ambient_dim=dim,
        simple_roots=tuple(alphas),
        roots=_over((coords @ simple).tolist(), den),
        root_coords=coords,
        gram=gram,
        cartan=cartan,
        fundamental_weights_ambient=_over((adj_t @ simple).tolist(), f * den),
        fundamental_weights_alpha=walpha,
        weight_orders=tuple(lcm(*(c.denominator for c in w)) for w in walpha),
        weyl_order=factorial(n) * f * prod(highest),
    )


def sorted_ratvectors(vs) -> tuple[RatVector, ...]:
    """Canonical deterministic ordering for rational vector collections."""
    return tuple(sorted((RatVector.from_fractions(v) for v in vs), key=RatVector.sort_key))
