"""Affine monoids cut out of Z+^n by linear congruences.

Two independent Hilbert-basis routes are provided: a fundamental-box scan
(for finite-index congruence sublattices) and a Contejean-Devie style
completion procedure for kernels of integer rows, run one total degree at a
time on integer arrays.  They are used to cross-check each other in the
test suite.

One boolean box mask feeds the cells, the box basis and the partition check.
In M = L cap Z+^n, a <= v in M puts v - a in M, so the basis's box points are
the minimal nonzero ones: no other nonzero monoid point lies below them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import DEFAULT_BOX_CAP, BoxCapExceeded, DimensionMismatch, FrontierCapExceeded
from .intlinalg import IntMatrix, IntVec, cokernel_invariant_factors, integer_kernel, smith_normal_form

if TYPE_CHECKING:
    from .rootsystem import RootSystem

DEFAULT_FRONTIER_CAP = 2_000_000
_BLOCK = 1 << 16  # (point, basis element) pairs one dominance test forms at once; bounds its memory
_INT64 = 2**63  # int64 holds exactly the integers of absolute value below this
_MAX_AXES = 32  # numpy's flat and multi-array iterators take at most this many axes
_SLAB = 1 << 18  # grid points verify_cell_partition scans at once, or one period of axis 0 if more


@dataclass(frozen=True)
class Congruence:
    """Linear condition sum(coeffs[i] * v[i]) == 0 mod modulus."""

    coeffs: IntVec
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "coeffs", tuple(c % self.modulus for c in self.coeffs))

    def holds(self, v: Sequence[int]) -> bool:
        return sum(c * x for c, x in zip(self.coeffs, v)) % self.modulus == 0


@dataclass(frozen=True)
class CongruenceMonoid:
    """M = {v in Z+^dim : all congruences hold}."""

    dim: int
    congruences: tuple[Congruence, ...]

    def __post_init__(self) -> None:
        for c in self.congruences:
            if len(c.coeffs) != self.dim:
                raise DimensionMismatch("congruence arity != monoid dimension")

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector of length {len(v)}, expected {self.dim}")
        return all(x >= 0 for x in v) and all(c.holds(v) for c in self.congruences)

    def generator_orders(self) -> IntVec:
        """Minimal t_i > 0 with t_i * e_i in the underlying lattice."""
        return tuple(
            lcm(*(c.modulus // gcd(c.coeffs[i], c.modulus) for c in self.congruences))
            for i in range(self.dim)
        )

    def lattice_basis(self) -> IntMatrix:
        """Columns form a basis of {v in Z^dim : all congruences hold}."""
        if not self.congruences:
            return IntMatrix.identity(self.dim)
        k = len(self.congruences)
        rows = []
        for idx, c in enumerate(self.congruences):
            row = list(c.coeffs) + [0] * k
            row[self.dim + idx] = -c.modulus
            rows.append(row)
        kern = integer_kernel(IntMatrix.from_rows(rows))
        cols = [v[: self.dim] for v in kern]
        if len(cols) != self.dim:
            raise AssertionError("congruence lattice must have full rank")
        return IntMatrix.from_rows([[col[i] for col in cols] for i in range(self.dim)])

    def lattice_index(self) -> int:
        """Index of the congruence lattice inside Z^dim."""
        return prod(smith_normal_form(self.lattice_basis()).diagonal)


@dataclass(frozen=True)
class KernelInstance:
    """Monoid {l in Z+^s : sum coeffs[i] * l[i] == 0}; needs mixed signs to be nontrivial."""

    coeffs: IntVec

    def __post_init__(self) -> None:
        if not any(c > 0 for c in self.coeffs) or not any(c < 0 for c in self.coeffs):
            raise ValueError("kernel instance needs at least one positive and one negative coefficient")


@dataclass(frozen=True)
class HilbertBasis:
    """Unique minimal generating set, in graded-lexicographic order."""

    elements: tuple[IntVec, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def graded_lex_sorted(vs: Iterable[Sequence[int]]) -> tuple[IntVec, ...]:
    return tuple(sorted((tuple(int(x) for x in v) for v in vs), key=lambda v: (sum(v), v)))


def parse_instance(text: str) -> CongruenceMonoid | KernelInstance:
    """Parse the instance text format.

    Congruence form: first line the dimension, then one congruence per line
    as "a_1 ... a_n mod m".  Kernel form: a single line "ker: a_1 ... a_s".
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]  # comments may be indented
    if not lines:
        raise ValueError("empty instance")
    if lines[0].lower().startswith("ker:"):
        if len(lines) > 1:
            raise ValueError(f"a 'ker:' instance is a single line, got {lines[1]!r} after it")
        return KernelInstance(tuple(int(x) for x in lines[0][4:].split()))
    dim = int(lines[0])
    if dim < 0:
        raise ValueError(f"negative dimension {dim}")
    congs = []
    for ln in lines[1:]:
        tokens = ln.split()  # a dimension-0 congruence is just "mod m"
        if len(tokens) < 2 or tokens[-2] != "mod":
            raise ValueError(f"expected 'a_1 ... a_n mod m', got {ln!r}")
        congs.append(Congruence(tuple(int(x) for x in tokens[:-2]), int(tokens[-1])))
    return CongruenceMonoid(dim, tuple(congs))


def _check_cap(sizes: Sequence[int], box_cap: int, what: str, knob: str) -> None:
    """Raise BoxCapExceeded, naming what was scanned and the knob that raises the cap, when
    prod [0, s_i) has more than box_cap points."""
    size = prod(sizes)
    if size > box_cap:
        raise BoxCapExceeded(f"{what} has {size} points, box cap is {box_cap}; raise it with {knob}")


def _box_mask(
    m: CongruenceMonoid, sizes: Sequence[int], box_cap: int, what: str, knob: str, start: int = 0
) -> np.ndarray:
    """Boolean mask of the monoid points of prod [0, s_i), with axis 0 shifted to [start,
    start + s_0), after cap checks that allocate nothing.

    The mask has only the axes of size above 1 (see _box_points), and axis 0
    when start is not 0: an axis of size 1 at 0 adds nothing to a residue.
    Residues are outer sums of a_i * x mod m in the smallest unsigned type that
    holds 2m (one byte per point for m < 128): dividing a congruence by
    gcd(m, a_1, ..., a_n) makes m the lcm of its per-axis orders, which divides
    prod(z) for the generator orders z; that product is capped here when the
    sizes are z, and otherwise by the box scan that the caller runs first.
    """
    _check_cap(sizes, box_cap, what, knob)
    long = [k for k, s in enumerate(sizes) if s > 1 or (k == 0 and start)]
    if len(long) > _MAX_AXES:
        raise BoxCapExceeded(f"{what} has {len(long)} axes longer than 1, the box scan handles at most {_MAX_AXES}")
    mask = None  # the first congruence's zero test is the mask, so no all-true mask is held beside it
    for c in m.congruences:
        g = gcd(c.modulus, *c.coeffs)
        mod = c.modulus // g
        dtype = np.min_scalar_type(2 * mod)  # holds the sum of two residues
        res = np.zeros((), dtype=dtype)
        for k in long:
            a, s, x0 = c.coeffs[k] // g, sizes[k], start if k == 0 else 0
            res = np.add.outer(res, np.fromiter((a * x % mod for x in range(x0, x0 + s)), dtype, s))
            np.remainder(res, mod, out=res)
        hit = np.asarray(res == 0)  # an array also when no axis is long
        mask = hit if mask is None else np.logical_and(mask, hit, out=mask)
    return np.ones(tuple(sizes[k] for k in long), dtype=bool) if mask is None else mask


def _box_points(mask: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """The points of a _box_mask over sizes, in lex order, with all len(sizes) coordinates."""
    pts = np.zeros((int(mask.sum()), len(sizes)), dtype=np.int64)
    pts[:, [k for k, s in enumerate(sizes) if s > 1]] = np.argwhere(mask)
    return pts


def box_elements(m: CongruenceMonoid, box_cap: int = DEFAULT_BOX_CAP) -> tuple[IntVec, ...]:
    """Monoid points of the half-open fundamental box prod [0, z_i), in graded-lex order."""
    z = m.generator_orders()
    pts = _box_points(_box_mask(m, z, box_cap, "box", "--box-cap"), z)
    pts = pts[np.argsort(pts.sum(axis=1), kind="stable")]  # stable on lex rows: graded-lex
    return tuple(map(tuple, pts.tolist()))


def hilbert_basis_box(m: CongruenceMonoid, box_cap: int = DEFAULT_BOX_CAP) -> HilbertBasis:
    """Hilbert basis via the fundamental-box construction.

    The basis is the scaled unit vectors z_i * e_i and the minimal nonzero box
    points: v is irreducible exactly when no nonzero monoid point a != v has
    a <= v, that is, when no nonzero monoid point lies below any v - e_i.
    """
    z = m.generator_orders()
    mask = _box_mask(m, z, box_cap, "box", "--box-cap")
    mask.flat[0] = False  # the origin
    below = mask.copy()  # below[v]: some nonzero monoid point a <= v
    for axis in range(mask.ndim):
        np.logical_or.accumulate(below, axis=axis, out=below)
    clear = np.logical_not(below, out=below)  # clear[v]: no nonzero monoid point a <= v
    for axis in range(mask.ndim):
        head = (slice(None),) * axis
        mask[head + (slice(1, None),)] &= clear[head + (slice(None, -1),)]
    gens = [tuple(zi if j == i else 0 for j in range(m.dim)) for i, zi in enumerate(z)]
    return HilbertBasis(graded_lex_sorted(gens + _box_points(mask, z).tolist()))


def _below(points: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """For each row of points, the number of rows of basis that lie below it (<=).

    Forms at most _BLOCK (point, basis row) pairs at a time, so its working
    memory is bounded whatever the sizes.
    """
    counts = np.zeros(len(points), dtype=np.int64)
    step_b = max(1, min(len(basis), _BLOCK))
    step_p = max(1, _BLOCK // step_b)
    for j in range(0, len(basis), step_b):
        b = basis[j : j + step_b]
        for i in range(0, len(points), step_p):
            counts[i : i + step_p] += (b <= points[i : i + step_p, None]).all(axis=2).sum(axis=1)
    return counts


def hilbert_basis_kernel(
    inst: KernelInstance | Sequence[Sequence[int]],
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
) -> HilbertBasis:
    """Hilbert basis of {l in Z+^s : A l = 0} by Contejean-Devie completion, one degree at a time.

    The frontier holds the points t of one total degree and their values A t,
    from the unit vectors on.  Points of value 0 are minimal solutions; every
    other t grows by e_i where <A t, A e_i> < 0 (the sign of values @ A), and
    grown points above a known solution are dropped.  Points of one degree
    cannot dominate each other, so a degree's solutions join the basis as
    they are, and the final sweep only checks minimality.
    Values are int64 while a per-degree bound shows that they fit, and Python
    ints otherwise.  frontier_cap bounds the points of one degree.
    """
    rows = [inst.coeffs] if isinstance(inst, KernelInstance) else [tuple(int(x) for x in r) for r in inst]
    a = np.array(rows, dtype=object)
    s = a.shape[1]
    # |A t| and |<A t, A e_i>| are at most deg(t) * growth
    growth = sum(max(map(abs, row), default=0) ** 2 for row in rows)
    pts, vals = np.eye(s, dtype=np.int64), a.T
    basis = pts[:0]
    degree = 1
    while len(pts):
        dtype = np.int64 if (degree + 1) * growth < _INT64 else object
        vals, cols = vals.astype(dtype, copy=False), a.T.astype(dtype)
        zero = ~(vals != 0).any(axis=1)
        basis = np.concatenate((basis, pts[zero]))
        pts, vals = pts[~zero], vals[~zero]
        f, i = np.nonzero(vals @ cols.T < 0)
        grown = pts[f]
        grown[np.arange(len(f)), i] += 1
        grown, first = np.unique(grown, axis=0, return_index=True)
        new = _below(grown, basis) == 0
        pts, origin = grown[new], first[new]
        vals = vals[f[origin]] + cols[i[origin]]
        degree += 1
        if len(pts) > frontier_cap:
            raise FrontierCapExceeded(
                f"completion frontier reached {len(pts)} points at degree {degree}, past the cap of "
                f"{frontier_cap} (the frontier_cap argument of hilbert_basis_kernel)"
            )
    if (_below(basis, basis) > 1).any():
        raise AssertionError("a kernel basis element dominates another")
    return HilbertBasis(graded_lex_sorted(basis.tolist()))


def family_monoid(rs: RootSystem) -> CongruenceMonoid:
    """M = {m in Z+^rank : sum m_i w_i lies in the root lattice}, as congruences."""
    fam, n = rs.rtype.family, rs.rank
    if fam == "A":
        return CongruenceMonoid(n, (Congruence(tuple(range(1, n + 1)), n + 1),))
    if fam == "B":
        return CongruenceMonoid(n, (Congruence((0,) * (n - 1) + (1,), 2),))
    if fam == "C":
        return CongruenceMonoid(n, (Congruence(tuple(i % 2 for i in range(1, n + 1)), 2),))
    if fam == "D":
        parity = tuple((1 if i % 2 else 0) for i in range(1, n - 1))
        c1 = Congruence((0,) * (n - 2) + (1, 1), 2)
        if n % 2 == 0:
            c2 = Congruence(parity + ((n // 2 + 1) % 2, (n // 2) % 2), 2)
        else:
            c2 = Congruence(tuple(2 * x for x in parity) + ((n + 2) % 4, n % 4), 4)
        return CongruenceMonoid(n, (c1, c2))
    if fam == "E" and n == 6:
        return CongruenceMonoid(6, (Congruence((1, 0, 2, 0, 1, 2), 3),))
    if fam == "E" and n == 7:
        return CongruenceMonoid(7, (Congruence((0, 1, 0, 0, 1, 0, 1), 2),))
    # weight lattice equals root lattice: no conditions
    return CongruenceMonoid(n, ())


def split_free_part(m: CongruenceMonoid) -> tuple[tuple[int, ...], CongruenceMonoid]:
    """Indices unconstrained by every congruence, plus the residual monoid.

    Returned indices are 0-based positions whose coefficient vanishes in all
    congruences; the residual monoid lives on the remaining coordinates.
    """
    free = tuple(
        i for i in range(m.dim) if all(c.coeffs[i] % c.modulus == 0 for c in m.congruences)
    )
    rest = tuple(i for i in range(m.dim) if i not in free)
    congs = tuple(
        Congruence(tuple(c.coeffs[i] for i in rest), c.modulus) for c in m.congruences
    )
    return free, CongruenceMonoid(len(rest), congs)


def hironaka_cells(m: CongruenceMonoid, box_cap: int = DEFAULT_BOX_CAP) -> tuple[IntVec, ...]:
    """Coset representatives for the free decomposition of the monoid.

    These are exactly the box points; the monoid is the disjoint union of
    translates cell + sum Z+ (z_i e_i).
    """
    cells = box_elements(m, box_cap)
    if len(cells) * m.lattice_index() != prod(m.generator_orders()):
        raise AssertionError("cell count times lattice index must equal the box volume")
    return cells


def toric_class_group(m: CongruenceMonoid) -> IntVec:
    """Invariant factors of the divisor class group of the monoid algebra.

    This is Z^dim modulo the congruence lattice, with each coordinate
    functional rescaled to be primitive on that lattice (the gcd of its
    values); the rescaling only matters in degenerate low-rank cases.
    """
    rows = [[x // (gcd(*row) or 1) for x in row] for row in m.lattice_basis().rows]
    try:
        return cokernel_invariant_factors(IntMatrix.from_rows(rows))
    except Exception as exc:  # full-rank lattice cannot fail; re-raise with context
        raise AssertionError("congruence lattice unexpectedly rank deficient") from exc


def verify_cell_partition(m: CongruenceMonoid, bound: int, box_cap: int = DEFAULT_BOX_CAP) -> int:
    """Exhaustively check the free decomposition on all elements with coords <= bound.

    Every monoid element must reduce (componentwise mod the generator orders)
    to exactly one cell, and distinct cells must stay distinct.  Returns the
    number of elements checked; raises AssertionError on any violation, and
    BoxCapExceeded before allocating a grid of more than box_cap points.
    """
    cells = hironaka_cells(m, box_cap)
    if len(set(cells)) != len(cells):
        raise AssertionError("cells are not distinct")
    z = m.generator_orders()
    is_cell = np.zeros(z, dtype=bool)
    is_cell[tuple(np.array(cells).T)] = True
    shape = (bound + 1,) * m.dim
    what, knob = "cell-partition grid", "verify_cell_partition's box_cap argument"
    _check_cap(shape, box_cap, what, knob)
    # the grid is scanned in slabs along axis 0 that start at multiples of z_0, so that
    # each slab folds onto the box like the whole grid would
    rows, z0 = (bound + 1, z[0]) if m.dim else (1, 1)  # a 0-dimensional grid is one point
    height = max(z0, _SLAB // prod(shape[1:]) // z0 * z0)
    hit = np.zeros(z, dtype=bool)
    checked = 0
    for start in range(0, rows, height):
        slab = (min(height, rows - start), *shape[1:])[: m.dim]
        grid = _box_mask(m, slab, box_cap, what, knob, start).reshape(slab)
        checked += int(grid.sum())
        for axis, zi in enumerate(z):  # fold the slab onto the box: hit[r] |= any grid[r + k z]
            grid = np.pad(grid, [(0, -n % zi if k == axis else 0) for k, n in enumerate(grid.shape)])
            grid = grid.reshape(grid.shape[:axis] + (-1, zi) + grid.shape[axis + 1 :]).any(axis=axis)
        hit |= grid
    stray = np.argwhere(hit & ~is_cell)
    if len(stray):
        raise AssertionError(f"residue {tuple(stray[0].tolist())} is not a cell")
    if bound >= max(z, default=1) - 1 and (hit != is_cell).any():
        raise AssertionError("some cell received no element despite exhaustive bound")
    return checked

