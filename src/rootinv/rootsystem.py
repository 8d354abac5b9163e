"""Irreducible crystallographic root systems in Bourbaki coordinates.

Ambient dimensions: the rank-(n-1) symmetric-group family sits in R^n, the
B/C/D families in R^n, G2 in R^3, F4 in R^4 and E6/E7/E8 in R^8.  Simple
bases follow the Bourbaki planches, so every downstream index (weights,
congruence coefficients, generator orders) is in Bourbaki order.  The
roots are the Weyl orbits of the simple roots from orbit_levels, the one
canonical-parent walk on integer levels (weyl's orbits and group levels use
it too), with no deduplication, and |W| = n! * |P/Q| * prod(m_i) over the
coefficients m_i of the highest root (Bourbaki, Lie Groups and Lie Algebras,
Ch. VI, 2).  Everything is kept as integer tables: the simple roots over
DEN, the roots in simple-root coordinates, and the fundamental weights over
|P/Q|; the Fraction views of them are derived on first read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidRank
from .intlinalg import IntMatrix, QVec, RatVector, scaled_inverse

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
ROOT_TABLE_LIMIT = 1 << 24  # |Phi| * rank entries of the root table; A255 and B, C, D203 are the largest types within it
DEN = 2  # every simple root in _simple_roots lies in (1/2) Z^dim, so the ambient tables are kept over 2


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
        h = self.coxeter_number
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

    @property
    def coxeter_number(self) -> int:
        """h = |Phi| / rank (Bourbaki, Ch. VI, 1.11 and the planches)."""
        f, n = self.family, self.rank
        return {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2, "F": 12, "G": 6}.get(f) or {6: 12, 7: 18, 8: 30}[n]

    @staticmethod
    def parse(family: str, rank: int | None = None) -> "RootSystemType":
        """Accept ('A', 2) or a fused token like 'E6' / 'a2'."""
        fam = family.strip().upper()
        if rank is None:
            if len(fam) < 2 or not fam[1:].isdigit():
                raise InvalidRank(f"cannot parse type {family!r}")
            fam, rank = fam[0], int(fam[1:])
        return RootSystemType(fam, int(rank))


@dataclass(frozen=True)
class RootSystem:
    """Computed root-system data, held as integer tables; build via :func:`build`.

    The Fraction views (roots, simple roots, fundamental weights) are derived
    from the tables on first read.
    """

    rtype: RootSystemType
    simple: np.ndarray = field(compare=False)  # row i: DEN * alpha_i in ambient coordinates
    root_coords: np.ndarray = field(compare=False)  # row k: simple-root coordinates of roots[k]
    gram: np.ndarray = field(compare=False)  # DEN^2 (alpha_i, alpha_j)
    cartan: IntMatrix  # entry (i, j) = <alpha_j, alpha_i^vee>
    index: int  # |P/Q| = det(cartan)
    weights: np.ndarray = field(compare=False)  # row i: index * omega_i in simple-root coordinates
    weyl_order: int

    @property
    def rank(self) -> int:
        return self.rtype.rank

    @property
    def ambient_dim(self) -> int:
        return self.simple.shape[1]

    @cached_property
    def simple_roots(self) -> tuple[QVec, ...]:
        return _exact(np.eye(self.rank, dtype=np.int64), self.simple, DEN)

    @cached_property
    def roots(self) -> tuple[QVec, ...]:
        return _exact(self.root_coords, self.simple, DEN)

    @cached_property
    def fundamental_weights_alpha(self) -> tuple[QVec, ...]:
        return _exact(np.eye(self.rank, dtype=np.int64), self.weights, self.index)

    @cached_property
    def fundamental_weights_ambient(self) -> tuple[QVec, ...]:
        return _exact(self.weights, self.simple, self.index * DEN)

    @cached_property
    def weight_orders(self) -> tuple[int, ...]:
        """Order of each fundamental weight in the weight/root quotient."""
        return tuple(self.index // gcd(self.index, *row) for row in self.weights.tolist())

    @property
    def weight_scale(self) -> int:
        """Lcm of all alpha-coordinate denominators of fundamental weights."""
        return lcm(*self.weight_orders)

    def pairing_with_simple(self, v: Sequence) -> QVec:
        """<v, alpha_j^vee> = 2 (v, alpha_j) / (alpha_j, alpha_j): v times the coroot table over d."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(f"{self.rtype.name} lives in dimension {self.ambient_dim}, not {len(v)}")
        g = self.gram.diagonal()
        d = lcm(*g.tolist())
        return _exact([v], (self.simple * (2 * DEN * d // g)[:, None]).T, d)[0]

    def alpha_coords(self, v: Sequence) -> QVec:
        """Coordinates of the span-component of v in the simple-root basis."""
        return _exact([self.pairing_with_simple(v)], self.weights, self.index)[0]

    def span_component(self, v: Sequence) -> QVec:
        return _exact([self.alpha_coords(v)], self.simple, DEN)[0]

    def from_weight_coords(self, m: Sequence) -> QVec:
        return _exact([m], self.weights @ self.simple, self.index * DEN)[0]


def _exact(c, table: np.ndarray, den: int) -> tuple[QVec, ...]:
    """The rows of c @ table / den as exact Fractions.

    c is an int64 array, whose product with these small tables is exact in
    int64, or rows of rationals, which are put over one denominator d so that
    the product is an integer one, in Python ints, over d * den.
    """
    if not isinstance(c, np.ndarray):
        c = [[Fraction(x) for x in row] for row in c]
        d = lcm(*(x.denominator for row in c for x in row))
        c = np.array([[int(x * d) for x in row] for row in c], dtype=object)
        table, den = table.astype(object), den * d
    nums = (c @ table).tolist()
    frac = {x: Fraction(x, den) for x in {x for row in nums for x in row}}  # a few distinct values
    return tuple(tuple(frac[x] for x in row) for row in nums)


def _simple_roots(t: RootSystemType) -> np.ndarray:
    """The rows DEN * alpha_i = 2 alpha_i in ambient coordinates (Bourbaki, planches I-IX)."""
    fam, n = t.family, t.rank
    if fam == "G":
        return np.array([[2, -2, 0], [-4, 2, 2]])
    if fam == "F":
        return np.array([[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2], [1, -1, -1, -1]])
    if fam == "E":
        e = DEN * np.eye(8, dtype=np.int64)
        rest = [e[i - 2] - e[i - 3] for i in range(3, n + 1)]
        return np.array([[1, -1, -1, -1, -1, -1, -1, 1], e[0] + e[1], *rest])
    e = DEN * np.eye(n + 1 if fam == "A" else n, dtype=np.int64)
    rows = [e[i] - e[i + 1] for i in range(n if fam == "A" else n - 1)]
    if fam != "A":
        rows.append({"B": e[n - 1], "C": 2 * e[n - 1], "D": e[n - 2] + e[n - 1]}[fam])
    return np.array(rows)


def _weight(cartan_rows, m: Sequence) -> tuple:
    """m as a tuple, after checking that it has one coordinate per simple root."""
    m = tuple(m)
    if len(m) != len(cartan_rows):
        raise DimensionMismatch(f"weight of length {len(m)}, expected {len(cartan_rows)}")
    return m


def dominant(cartan_rows, m: Sequence) -> tuple:
    """The dominant point of the W-orbit of m, given in weight coordinates.

    s_i acts by m_j -> m_j - m_i * cartan[j][i].  Reflecting in a negative
    coordinate adds -m_i * alpha_i, so the point rises until it is dominant.
    """
    m = _weight(cartan_rows, m)
    while any(x < 0 for x in m):
        i = next(i for i, x in enumerate(m) if x < 0)
        mi = m[i]
        m = tuple(a - mi * row[i] for a, row in zip(m, cartan_rows))
    return m


def orbit_levels(cartan_rows, h: int, top: Sequence[int], first: int = 0) -> Iterator[tuple[np.ndarray, ...]]:
    """The orbit of the dominant integer point top under s_first, ..., s_{n-1}, level by level.

    Yields (mu, gen, parent) for each level: mu (n, F) holds its points as
    columns, in weight coordinates, and the next level holds the children
    s_gen[k] mu[:, parent[k]] in that order, gen ascending.  Each point but top
    comes once, from its canonical parent s_i mu, i its first descent: the
    first j >= first with mu_j < 0 (Casselman, Invent. Math. 116, 1994).  So
    s_i mu is a child of mu when mu_i > 0 and no coordinate j of s_i mu with
    first <= j < i is negative.  s_i raises each Cartan neighbour j of i by
    |c_ji| mu_i and keeps the other coordinates j != i, so one pass counts the
    negative coordinates before every i and takes off the earlier neighbours
    that s_i lifts to >= 0.  Two points of W_J top, J = {first, ..., n - 1},
    differ in a coordinate in J (the Cartan matrix of J is invertible), so the
    coordinates outside J need not steer.

    A coordinate of w(top) is <top, w^-1 alpha_i^vee>, and a coroot's
    simple-coroot coordinates sum to at most h - 1, so the points and the
    counts of negative coordinates (n - 1 < h) are kept in the smallest signed
    type that holds (h - 1) max|top_i|: int8 for rho and every omega_i while
    h <= 128, object past int64.  Intermediates may wrap: the arithmetic is
    modular, and every result lies in range.
    """
    top = _weight(cartan_rows, top)
    dtype = np.min_scalar_type(-(h - 1) * max(abs(int(x)) for x in top) - 1)
    cart = np.array(cartan_rows, dtype)
    earlier = [[j - first for j in range(first, i) if cartan_rows[j][i]] for i in range(first, len(top))]
    slots = []  # slot s: the rows of J with an s-th neighbour j < i, those j, and -c_ji > 0
    for s in range(max(map(len, earlier), default=0)):
        rows = [r for r, e in enumerate(earlier) if len(e) > s]
        js = [earlier[r][s] for r in rows]
        slots.append((rows, js, -cart[[first + j for j in js], [first + r for r in rows]][:, None]))
    mu = np.array(top, dtype)[:, None]
    while mu.shape[1]:
        mu_j = mu[first:]
        neg = mu_j < 0
        bad = neg.cumsum(axis=0, dtype=dtype) - neg  # bad[r, f]: coordinates j < r of J with mu_j < 0
        for rows, js, c in slots:
            bad[rows] -= neg[js] & (mu_j[js] + c * mu_j[rows] >= 0)
        gen, parent = ((mu_j > 0) & (bad == 0)).nonzero()
        gen += first
        yield mu, gen, parent
        mu = mu[:, parent]
        mu -= cart[:, gen] * mu[gen, np.arange(len(gen))]


def macdonald_order(coords: np.ndarray) -> Fraction:
    """|W| of the roots in the rows of coords (simple-root coordinates): Macdonald's product
    over the positive roots beta of (ht(beta) + 1) / ht(beta) (Math. Ann. 199, 1972), which is
    prod_j j^(c_(j-1) - c_j) for c_k positive roots of height k."""
    heights = coords.sum(axis=1)
    c = np.bincount(heights[heights > 0]).tolist() + [0]
    return prod(Fraction(j) ** (c[j - 1] - c[j]) for j in range(2, len(c)))


def build(t: RootSystemType | str, rank: int | None = None) -> RootSystem:
    """Construct the root system with all derived weight data.

    Raises AssertionError unless |Phi| = rank * h, where h = ht(theta) + 1 is
    the Coxeter number of the highest root theta (Bourbaki, Ch. VI, 1.11),
    and unless n! |P/Q| prod(m_i) agrees with Macdonald's second route to
    |W|, prod over beta > 0 of (ht(beta) + 1) / ht(beta) (Math. Ann. 199, 1972).
    """
    if isinstance(t, str):
        t = RootSystemType.parse(t, rank)
    n = t.rank
    simple = _simple_roots(t)
    gram = simple @ simple.T
    # entry (i, j) = <alpha_j, alpha_i^vee> = 2 (alpha_j, alpha_i) / (alpha_i, alpha_i)
    cartan_rows = (2 * gram // gram.diagonal()[:, None]).tolist()
    cartan = IntMatrix.from_rows(cartan_rows)

    # fundamental weights: rows of the inverse transposed Cartan matrix are
    # the alpha-coordinates (so that <w_i, alpha_j^vee> = delta_ij)
    f, scaled = scaled_inverse(cartan)  # f = det(cartan) = |P/Q|, and f * cartan^{-1}
    weights = np.array(scaled.transpose().rows, dtype=np.int64)  # f * omega_i, integral

    # roots: the orbits of the simple roots, whose weight coordinates are the
    # Cartan columns; W is transitive on the roots of each length
    by_length = {g: i for i, g in enumerate(gram.diagonal().tolist())}
    tops = [dominant(cartan_rows, [row[j] for row in cartan_rows]) for j in by_length.values()]
    pts = np.concatenate([mu for top in tops for mu, _, _ in orbit_levels(cartan_rows, t.coxeter_number, top)], axis=1)
    coords = pts.T.astype(np.int64) @ weights // f  # simple-root coordinates; every root lies in Q
    highest = coords[coords.sum(axis=1).argmax()].tolist()  # the root of greatest height
    expected = n * (sum(highest) + 1)
    if len(coords) != expected:
        raise AssertionError(f"{t.name}: {len(coords)} roots, but rank * (ht(theta) + 1) = {expected}")
    weyl_order = factorial(n) * f * prod(highest)
    macdonald = macdonald_order(coords)
    if weyl_order != macdonald:
        raise AssertionError(
            f"{t.name}: n! |P/Q| prod(m_i) = {weyl_order}, but prod (ht(beta) + 1) / ht(beta) = {macdonald}"
        )
    for table in (simple, coords, gram, weights):  # a RootSystem may be shared, so its arrays stay as built
        table.setflags(write=False)
    return RootSystem(
        rtype=t, simple=simple, root_coords=coords, gram=gram, cartan=cartan, index=f, weights=weights,
        weyl_order=weyl_order,
    )


def sorted_ratvectors(vs) -> tuple[RatVector, ...]:
    """Canonical deterministic ordering for rational vector collections."""
    return tuple(sorted((RatVector.from_fractions(v) for v in vs), key=RatVector.sort_key))
