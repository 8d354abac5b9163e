"""Exact linear algebra over the integers and rationals.

Everything here is exact: Python ints and Fractions, or numpy int64 where a
bound rules out overflow.  The Smith normal form is the one elimination:
kernels, cokernels, determinants and inverses all come from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

import numpy as np

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

    def col(self, j: int) -> IntVec:
        return tuple(r[j] for r in self.rows)


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


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Smith normal form U A V = D by one pivoting loop.

    The loop follows Cohen, A Course in Computational Algebraic Number Theory,
    1993, Alg. 2.4.14.  Each step pivots on the smallest nonzero entry of the
    trailing block and divides it out of its row and column.  A remainder is
    smaller than the pivot, so the step then pivots again on the block's
    smallest entry, which keeps the entries small.  Once the row and column
    are clear, a row holding an entry that the pivot does not divide is added
    to the pivot row, so that d1 | d2 | ... .
    """
    m, n = a.nrows, a.ncols
    d = [list(r) for r in a.rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    t = 0
    while t < min(m, n):
        block = [(abs(x), i, j) for i in range(t, m) for j, x in enumerate(d[i][t:], t) if x]
        if not block:
            break
        _, i, j = min(block)
        d[t], d[i], u[t], u[i] = d[i], d[t], u[i], u[t]
        for row in d + v:
            row[t], row[j] = row[j], row[t]
        p = d[t][t]
        for i in range(t + 1, m):
            q = d[i][t] // p
            if q:
                d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
        for j in range(t + 1, n):
            q = d[t][j] // p
            if q:
                for row in d + v:
                    row[j] -= q * row[t]
        if any(d[i][t] for i in range(t + 1, m)) or any(d[t][t + 1 :]):
            continue
        bad = next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None)
        if bad is not None:
            d[t] = [x + y for x, y in zip(d[t], d[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            continue
        if p < 0:
            d[t], u[t] = [-x for x in d[t]], [-x for x in u[t]]
        t += 1
    diag = tuple(d[i][i] for i in range(t)) + (0,) * (min(m, n) - t)
    return SmithForm(IntMatrix.from_rows(u), IntMatrix.from_rows(v), diag)


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


def scaled_inverse(a: IntMatrix) -> tuple[IntVec, np.ndarray]:
    """(d, f * A^-1) for a square nonsingular A: d its Smith diagonal, f = prod(d) = |det A|.

    With U A V = D, A^-1 = V D^-1 U, and every d_i divides f, so f * A^-1 =
    V diag(f / d_i) U is integral (Cohen, A Course in Computational Algebraic
    Number Theory, 1993, 2.4.4).  It is taken in int64 when n max|V| max(f / d_i)
    max|U| < 2^63 bounds every partial sum, else in Python ints.
    """
    if a.nrows != a.ncols:
        raise DimensionMismatch("inverse of a non-square matrix")
    sf = smith_normal_form(a)
    if not all(sf.diagonal):
        raise DimensionMismatch("singular matrix")
    f = prod(sf.diagonal)
    scale = [f // d for d in sf.diagonal]
    big = max(abs(x) for r in sf.V.rows for x in r) * max(scale) * max(abs(x) for r in sf.U.rows for x in r)
    dtype = np.int64 if a.nrows * big < 1 << 63 else object
    return sf.diagonal, np.array(sf.V.rows, dtype) * np.array(scale, dtype) @ np.array(sf.U.rows, dtype)


def solve_exact(a: Sequence[Sequence[Fraction | int]], b: Sequence[Fraction | int]) -> QVec:
    """Solve A x = b exactly for square nonsingular A over the rationals."""
    s = lcm(*(Fraction(x).denominator for row in a for x in row))  # s * A is integral
    d, m = scaled_inverse(IntMatrix.from_rows([[x * s for x in row] for row in a]))
    return tuple(s * sum(x * Fraction(y) for x, y in zip(row, b)) / prod(d) for row in m.tolist())
