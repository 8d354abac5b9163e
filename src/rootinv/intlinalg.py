"""Exact linear algebra over the integers and rationals.

Everything here works with arbitrary-precision Python ints / Fractions;
no floating point is used anywhere.  The Smith normal form is the one
elimination: kernels, cokernels, determinants and inverses all come from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InfiniteQuotient

IntVec = tuple[int, ...]
QVec = tuple[Fraction, ...]


@dataclass(frozen=True)
class IntMatrix:
    """Immutable rectangular matrix of exact integers."""

    rows: tuple[IntVec, ...]

    def __post_init__(self) -> None:
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise DimensionMismatch("ragged rows")

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in r) for r in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows))) if self.rows else self

    def col(self, j: int) -> IntVec:
        return tuple(r[j] for r in self.rows)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.ncols} != {other.nrows}")
        cols = other.transpose().rows
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, c)) for c in cols) for row in self.rows)
        )


@dataclass(frozen=True)
class RatVector:
    """Exact rational vector stored as integer numerators over one positive denominator.

    Invariant: den >= 1 and gcd(all nums, den) == 1.
    """

    nums: IntVec
    den: int

    @staticmethod
    def from_fractions(fs: Sequence[Fraction | int]) -> "RatVector":
        fr = [Fraction(f) for f in fs]
        # the lcm of reduced denominators is already coprime to the numerators
        den = lcm(*(f.denominator for f in fr))
        return RatVector(tuple(int(f * den) for f in fr), den)

    def to_fractions(self) -> QVec:
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def sort_key(self) -> tuple:
        return (len(self.nums), tuple(Fraction(x, self.den) for x in self.nums))


@dataclass(frozen=True)
class SmithForm:
    """Decomposition U*A*V = D with U, V unimodular and D diagonal.

    The diagonal satisfies d1 | d2 | ... | dr with di >= 0.
    """

    U: IntMatrix
    V: IntMatrix
    diagonal: IntVec


def _swap_rows(m: list[list[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: list[list[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form by exact row/column reduction with min-abs pivoting."""
    m, n = a.nrows, a.ncols
    d = [list(r) for r in a.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def pivot_at(t: int) -> bool:
        # move a minimal-magnitude nonzero entry of the trailing block to (t, t)
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = abs(d[i][j])
                if x and (best is None or x < best[0]):
                    best = (x, i, j)
        if best is None:
            return False
        _, i, j = best
        if i != t:
            _swap_rows(d, i, t)
            _swap_rows(u, i, t)
        if j != t:
            _swap_cols(d, j, t)
            _swap_cols(v, j, t)
        return True

    t = 0
    while t < min(m, n):
        if not pivot_at(t):
            break
        while True:
            # clear column t with row operations
            dirty = False
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        for j in range(n):
                            d[i][j] -= q * d[t][j]
                        for j in range(m):
                            u[i][j] -= q * u[t][j]
                    if d[i][t]:
                        _swap_rows(d, i, t)
                        _swap_rows(u, i, t)
                        dirty = True
            # clear row t with column operations
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        for i in range(m):
                            d[i][j] -= q * d[i][t]
                        for i in range(n):
                            v[i][j] -= q * v[i][t]
                    if d[t][j]:
                        _swap_cols(d, j, t)
                        _swap_cols(v, j, t)
                        dirty = True
            if not dirty:
                break
        if d[t][t] < 0:
            for j in range(n):
                d[t][j] = -d[t][j]
            for j in range(m):
                u[t][j] = -u[t][j]
        t += 1

    # enforce the divisibility chain d1 | d2 | ...
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if d[i + 1][i + 1] % d[i][i]:
                # fold entry i+1 into column i, then re-reduce the 2x2 block
                for k in range(m):
                    d[k][i] += d[k][i + 1]
                for k in range(n):
                    v[k][i] += v[k][i + 1]
                a_, b_ = d[i][i], d[i + 1][i]
                g = gcd(a_, b_)
                # row-reduce the pair (a_, b_) to (g, 0) via Bezout
                x, y = _bezout(a_, b_)
                ri, rj = list(d[i]), list(d[i + 1])
                ui, uj = list(u[i]), list(u[i + 1])
                for k in range(n):
                    d[i][k] = x * ri[k] + y * rj[k]
                    d[i + 1][k] = (-b_ // g) * ri[k] + (a_ // g) * rj[k]
                for k in range(m):
                    u[i][k] = x * ui[k] + y * uj[k]
                    u[i + 1][k] = (-b_ // g) * ui[k] + (a_ // g) * uj[k]
                # clear the leftover entry in row i
                qq = d[i][i + 1] // g
                for k in range(m):
                    d[k][i + 1] -= qq * d[k][i]
                for k in range(n):
                    v[k][i + 1] -= qq * v[k][i]
                if d[i + 1][i + 1] < 0:
                    for k in range(n):
                        d[i + 1][k] = -d[i + 1][k]
                    for k in range(m):
                        u[i + 1][k] = -u[i + 1][k]
                changed = True
    diag = tuple(d[i][i] for i in range(r)) + (0,) * (min(m, n) - r)
    return SmithForm(IntMatrix.from_rows(u), IntMatrix.from_rows(v), diag)


def _bezout(a: int, b: int) -> tuple[int, int]:
    """Return (x, y) with x*a + y*b == gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def integer_kernel(a: IntMatrix) -> tuple[IntVec, ...]:
    """Basis of the saturated lattice {x in Z^ncols : A x = 0}.

    The returned vectors are the columns of the Smith V matrix belonging to
    zero diagonal entries, hence a basis of the full kernel lattice.
    """
    sf = smith_normal_form(a)
    rank = sum(1 for x in sf.diagonal if x)
    return tuple(sf.V.col(j) for j in range(rank, a.ncols))


def cokernel_invariant_factors(a: IntMatrix) -> IntVec:
    """Invariant factors (> 1) of Z^nrows / column-span(A).

    Raises InfiniteQuotient when the quotient has positive rank.
    """
    sf = smith_normal_form(a)
    rank = sum(1 for x in sf.diagonal if x)
    if rank < a.nrows:
        raise InfiniteQuotient(f"quotient rank {a.nrows - rank} > 0")
    return tuple(x for x in sf.diagonal if x > 1)


def scaled_inverse(a: IntMatrix) -> tuple[int, IntMatrix]:
    """(f, f * A^-1) for a square nonsingular A, where f = |det A|.

    With U A V = D, A^-1 = V D^-1 U, and every d_i divides f = prod(d_i), so
    f * A^-1 = V diag(f / d_i) U is integral (Cohen, A Course in Computational
    Algebraic Number Theory, 1993, 2.4.4).
    """
    if a.nrows != a.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    sf = smith_normal_form(a)
    if not all(sf.diagonal):
        raise DimensionMismatch("singular matrix")
    f = prod(sf.diagonal)
    scaled_u = IntMatrix(tuple(tuple(f // d * x for x in row) for d, row in zip(sf.diagonal, sf.U.rows)))
    return f, sf.V.mul(scaled_u)


def solve_exact(a: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]) -> QVec:
    """Solve A x = b exactly for square nonsingular A over the rationals."""
    s = lcm(*(Fraction(x).denominator for row in a for x in row))  # s * A is integral
    f, m = scaled_inverse(IntMatrix.from_rows([[x * s for x in row] for row in a]))
    return tuple(s * sum(x * Fraction(y) for x, y in zip(row, b)) / f for row in m.rows)
