"""Exact integer/rational linear algebra, cross-checked against sympy."""

from __future__ import annotations

import random
from fractions import Fraction
from math import prod

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from rootinv.errors import DimensionMismatch, InfiniteQuotient
from rootinv.intlinalg import (
    IntMatrix,
    RatVector,
    cokernel_invariant_factors,
    integer_kernel,
    scaled_inverse,
    smith_normal_form,
    solve_exact,
)


def check_smith(a: IntMatrix) -> None:
    sf = smith_normal_form(a)
    assert abs(sympy.Matrix(sf.U.rows).det()) == 1
    assert abs(sympy.Matrix(sf.V.rows).det()) == 1
    diag = [[sf.diagonal[i] if i == j else 0 for j in range(a.ncols)] for i in range(a.nrows)]
    assert sf.U.mul(a).mul(sf.V) == IntMatrix.from_rows(diag)
    d = [x for x in sf.diagonal if x]
    for i in range(len(d) - 1):
        assert d[i + 1] % d[i] == 0
    assert all(x >= 0 for x in sf.diagonal)


def test_smith_a2_cartan():
    a = IntMatrix.from_rows([[2, -1], [-1, 2]])
    sf = smith_normal_form(a)
    assert sf.diagonal == (1, 3)
    check_smith(a)


def test_smith_zero_and_identity():
    z = IntMatrix.from_rows([[0, 0], [0, 0]])
    assert smith_normal_form(z).diagonal == (0, 0)
    check_smith(z)
    eye = IntMatrix.identity(3)
    assert smith_normal_form(eye).diagonal == (1, 1, 1)


def test_smith_rectangular():
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12]])
    check_smith(a)
    a2 = IntMatrix.from_rows([[1, 2, -3]])
    check_smith(a2)
    assert smith_normal_form(a2).diagonal == (1,)


# a Euclid loop that swaps rows and columns in place, with no re-pivoting on
# the whole block, let the entries of this matrix grow without bound
_SMITH_BLOW_UP = [
    [16, 16, -14, -7, 20, 16],
    [-3, -2, -13, -16, 10, 20],
    [10, -15, 2, -16, 6, -11],
    [-19, -2, 7, 6, -13, -18],
    [18, 19, -18, 4, 17, 1],
    [15, -3, 12, -5, -18, -1],
]


def test_smith_against_sympy_random():
    rng = random.Random(20260825)
    inputs = [_SMITH_BLOW_UP]
    for _ in range(60):
        nr = rng.randint(1, 7)
        nc = rng.randint(1, 7)
        inputs.append([[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)])
    for trial, rows in enumerate(inputs):
        a = IntMatrix.from_rows(rows)
        check_smith(a)
        ours = [x for x in smith_normal_form(a).diagonal if x]
        sm = sympy_snf(sympy.Matrix(rows))
        theirs = [abs(int(sm[i, i])) for i in range(min(a.nrows, a.ncols)) if sm[i, i] != 0]
        assert ours == theirs, f"trial {trial}: {rows}"
    assert smith_normal_form(IntMatrix.from_rows(_SMITH_BLOW_UP)).diagonal == (1, 1, 1, 1, 1, 51304324)


def test_integer_kernel_spans_known_solutions():
    a = IntMatrix.from_rows([[1, 2, -3]])
    basis = integer_kernel(a)
    assert len(basis) == 2
    for v in basis:
        assert sum(c * x for c, x in zip((1, 2, -3), v)) == 0
    # known solutions must be integer combinations of the kernel basis
    mat = sympy.Matrix([[b[i] for b in basis] for i in range(3)])
    for sol in [(1, 1, 1), (3, 0, 1), (0, 3, 2), (30, 15, 20)]:
        x, params = mat.gauss_jordan_solve(sympy.Matrix(sol))
        assert not params
        assert all(val.is_integer for val in x)


def test_integer_kernel_saturated():
    # 2x - 2y = 0 has primitive solution (1,1); a non-saturated basis would give (2,2)
    a = IntMatrix.from_rows([[2, -2]])
    basis = integer_kernel(a)
    assert len(basis) == 1
    assert tuple(abs(x) for x in basis[0]) == (1, 1)


def test_cokernel_of_cartan_matrices():
    a3 = IntMatrix.from_rows([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert cokernel_invariant_factors(a3) == (4,)
    a1 = IntMatrix.from_rows([[2]])
    assert cokernel_invariant_factors(a1) == (2,)
    eye = IntMatrix.identity(4)
    assert cokernel_invariant_factors(eye) == ()


def test_cokernel_infinite_quotient():
    a = IntMatrix.from_rows([[2], [4]])
    with pytest.raises(InfiniteQuotient):
        cokernel_invariant_factors(a)


def test_rank_and_det_against_sympy():
    # the rank is the number of nonzero Smith invariants, |det| their product
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        m = sympy.Matrix(rows)
        diag = smith_normal_form(IntMatrix.from_rows(rows)).diagonal
        assert sum(1 for d in diag if d) == m.rank()
        assert prod(diag) == abs(m.det())


def test_scaled_inverse_against_sympy():
    rng = random.Random(12)
    trials = 0
    while trials < 40:
        n = rng.randint(1, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        m = sympy.Matrix(rows)
        if m.det() == 0:
            continue
        f, inv = scaled_inverse(IntMatrix.from_rows(rows))
        assert f == abs(m.det())
        assert sympy.Matrix(inv.rows) == f * m.inv()
        trials += 1


def test_scaled_inverse_rejects_singular_and_non_square():
    with pytest.raises(DimensionMismatch):
        scaled_inverse(IntMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(DimensionMismatch):
        scaled_inverse(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_solve_exact_and_inverse():
    a = [[2, -1], [-1, 2]]
    assert solve_exact(a, [1, 0]) == (Fraction(2, 3), Fraction(1, 3))
    assert scaled_inverse(IntMatrix.from_rows(a)) == (3, IntMatrix.from_rows([[2, 1], [1, 2]]))
    # non-integral entries: solve_exact clears the denominators before the Smith form
    half_third = [[Fraction(1, 2), Fraction(1, 3)], [1, 1]]
    assert solve_exact(half_third, [1, Fraction(1, 5)]) == (Fraction(28, 5), Fraction(-27, 5))


def test_ratvector_normalization():
    v = RatVector.from_fractions([Fraction(1, 2), Fraction(3, 4)])
    assert v.den == 4 and v.nums == (2, 3)
    w = RatVector.from_fractions([2, 4])
    assert w.den == 1 and w.nums == (2, 4)
    assert v.to_fractions() == (Fraction(1, 2), Fraction(3, 4))


def test_matrix_basics():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert a.mul(b) == IntMatrix.from_rows([[2, 1], [4, 3]])
    assert a.transpose() == IntMatrix.from_rows([[1, 3], [2, 4]])
    assert a.col(0) == (1, 3)
