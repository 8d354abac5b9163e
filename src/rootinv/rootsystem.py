"""Irreducible crystallographic root systems in Bourbaki coordinates.

Ambient dimensions: the rank-(n-1) symmetric-group family sits in R^n, the
B/C/D families in R^n, G2 in R^3, F4 in R^4 and E6/E7/E8 in R^8.  Simple
bases follow the Bourbaki planches, so every downstream index (weights,
congruence coefficients, generator orders) is in Bourbaki order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import factorial, gcd

from .errors import InvalidRank
from .intlinalg import IntMatrix, QVec, RatVector, invert_rational

FAMILIES = ("A", "B", "C", "D", "E", "F", "G")

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
    cartan: IntMatrix  # entry (i, j) = <alpha_j, alpha_i^vee>
    fundamental_weights_ambient: tuple[QVec, ...]
    fundamental_weights_alpha: tuple[QVec, ...]
    weight_orders: tuple[int, ...]  # order of each weight in weight/root quotient
    weyl_order: int
    _alpha_solver: tuple[QVec, ...] = field(repr=False)  # inverse Cartan, rows

    @property
    def rank(self) -> int:
        return self.rtype.rank

    @property
    def weight_scale(self) -> int:
        """Lcm of all alpha-coordinate denominators of fundamental weights."""
        s = 1
        for w in self.fundamental_weights_alpha:
            for c in w:
                s = s * c.denominator // gcd(s, c.denominator)
        return s

    def pairing_with_simple(self, v: QVec) -> tuple[Fraction, ...]:
        return tuple(_pairing(v, a) for a in self.simple_roots)

    def alpha_coords(self, v: QVec) -> QVec:
        """Coordinates of the span-component of v in the simple-root basis."""
        pair = self.pairing_with_simple(v)
        return tuple(
            sum((self._alpha_solver[i][j] * pair[j] for j in range(self.rank)), Q(0))
            for i in range(self.rank)
        )

    def span_component(self, v: QVec) -> QVec:
        c = self.alpha_coords(v)
        out = [Q(0)] * self.ambient_dim
        for ci, a in zip(c, self.simple_roots):
            for k in range(self.ambient_dim):
                out[k] += ci * a[k]
        return tuple(out)

    def from_alpha_coords(self, c) -> QVec:
        out = [Q(0)] * self.ambient_dim
        for ci, a in zip(c, self.simple_roots):
            for k in range(self.ambient_dim):
                out[k] += Q(ci) * a[k]
        return tuple(out)

    def from_weight_coords(self, m) -> QVec:
        out = [Q(0)] * self.ambient_dim
        for mi, w in zip(m, self.fundamental_weights_ambient):
            for k in range(self.ambient_dim):
                out[k] += Q(mi) * w[k]
        return tuple(out)

    def weight_coords(self, v: QVec) -> tuple[Fraction, ...]:
        """Pairings with the simple coroots; integral exactly on the weight lattice."""
        return self.pairing_with_simple(v)


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


def _all_roots(t: RootSystemType, dim: int) -> list[QVec]:
    fam, n = t.family, t.rank
    roots: list[QVec] = []
    if fam == "A":
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    v = [Q(0)] * dim
                    v[i], v[j] = Q(1), Q(-1)
                    roots.append(tuple(v))
    elif fam in ("B", "C", "D"):
        for i, j in combinations(range(n), 2):
            for si, sj in product((1, -1), repeat=2):
                v = [Q(0)] * n
                v[i], v[j] = Q(si), Q(sj)
                roots.append(tuple(v))
        if fam != "D":
            scale = 1 if fam == "B" else 2
            for i in range(n):
                for s in (1, -1):
                    v = [Q(0)] * n
                    v[i] = Q(s * scale)
                    roots.append(tuple(v))
    elif fam == "G":
        base = [(1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)]
        for v in base:
            roots.append(tuple(Q(x) for x in v))
            roots.append(tuple(Q(-x) for x in v))
    elif fam == "F":
        for i in range(4):
            for s in (1, -1):
                v = [Q(0)] * 4
                v[i] = Q(s)
                roots.append(tuple(v))
        for i, j in combinations(range(4), 2):
            for si, sj in product((1, -1), repeat=2):
                v = [Q(0)] * 4
                v[i], v[j] = Q(si), Q(sj)
                roots.append(tuple(v))
        for signs in product((1, -1), repeat=4):
            roots.append(tuple(Q(s, 2) for s in signs))
    else:  # E types, inside R^8
        if n == 8:
            for i, j in combinations(range(8), 2):
                for si, sj in product((1, -1), repeat=2):
                    v = [Q(0)] * 8
                    v[i], v[j] = Q(si), Q(sj)
                    roots.append(tuple(v))
            for signs in product((1, -1), repeat=8):
                if signs.count(-1) % 2 == 0:
                    roots.append(tuple(Q(s, 2) for s in signs))
        elif n == 7:
            for i, j in combinations(range(6), 2):
                for si, sj in product((1, -1), repeat=2):
                    v = [Q(0)] * 8
                    v[i], v[j] = Q(si), Q(sj)
                    roots.append(tuple(v))
            for s in (1, -1):
                v = [Q(0)] * 8
                v[6], v[7] = Q(-s), Q(s)
                roots.append(tuple(v))
            for signs in product((1, -1), repeat=6):
                if signs.count(-1) % 2 == 1:
                    for s in (1, -1):
                        half = [Q(s * x, 2) for x in signs] + [Q(-s, 2), Q(s, 2)]
                        roots.append(tuple(half))
        else:  # n == 6
            for i, j in combinations(range(5), 2):
                for si, sj in product((1, -1), repeat=2):
                    v = [Q(0)] * 8
                    v[i], v[j] = Q(si), Q(sj)
                    roots.append(tuple(v))
            for signs in product((1, -1), repeat=5):
                if signs.count(-1) % 2 == 0:
                    for s in (1, -1):
                        half = [Q(s * x, 2) for x in signs] + [Q(-s, 2), Q(-s, 2), Q(s, 2)]
                        roots.append(tuple(half))
    return roots


ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}

WEYL_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: (1 << n) * factorial(n),
    "C": lambda n: (1 << n) * factorial(n),
    "D": lambda n: (1 << (n - 1)) * factorial(n),
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
    "F": lambda n: 1152,
    "G": lambda n: 12,
}


def build(t: RootSystemType | str, rank: int | None = None) -> RootSystem:
    """Construct the root system with all derived weight data."""
    if isinstance(t, str):
        t = RootSystemType.parse(t, rank)
    dim, alphas = _simple_roots(t)
    n = t.rank
    cartan_rows = [
        [int(_pairing(alphas[j], alphas[i])) for j in range(n)] for i in range(n)
    ]
    cartan = IntMatrix.from_rows(cartan_rows)
    roots = _all_roots(t, dim)
    if len(roots) != ROOT_COUNTS[t.family](n):
        raise AssertionError(f"root count mismatch for {t.name}")

    # fundamental weights: rows of the inverse transposed Cartan matrix are
    # the alpha-coordinates (so that <w_i, alpha_j^vee> = delta_ij)
    inv = invert_rational(cartan_rows)  # rows of cartan^{-1}
    walpha = tuple(tuple(inv[k][i] for k in range(n)) for i in range(n))
    wamb = []
    for i in range(n):
        v = [Q(0)] * dim
        for c, a in zip(walpha[i], alphas):
            for k in range(dim):
                v[k] += c * a[k]
        wamb.append(tuple(v))
    orders = []
    for i in range(n):
        z = 1
        for c in walpha[i]:
            z = z * c.denominator // gcd(z, c.denominator)
        orders.append(z)

    inv_t = tuple(tuple(inv[i][k] for k in range(n)) for i in range(n))
    return RootSystem(
        rtype=t,
        ambient_dim=dim,
        simple_roots=tuple(alphas),
        roots=tuple(roots),
        cartan=cartan,
        fundamental_weights_ambient=tuple(wamb),
        fundamental_weights_alpha=walpha,
        weight_orders=tuple(orders),
        weyl_order=WEYL_ORDERS[t.family](n),
        _alpha_solver=inv_t,
    )


def sorted_ratvectors(vs) -> tuple[RatVector, ...]:
    """Canonical deterministic ordering for rational vector collections."""
    return tuple(sorted((RatVector.from_fractions(v) for v in vs), key=RatVector.sort_key))
