"""Affine monoids cut out of Z+^n by linear congruences.

Two independent Hilbert-basis routes are provided: a fundamental-box scan
(for finite-index congruence sublattices) and a Contejean-Devie style
completion procedure for kernels of integer rows.  They are used to
cross-check each other in the test suite.

One boolean box mask feeds the cells, the box basis and the partition check.
In M = L cap Z+^n, a <= v in M puts v - a in M, so the basis's box points are
the minimal nonzero ones: no other nonzero monoid point lies below them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterable, Sequence

import numpy as np

from .errors import BoxCapExceeded, DimensionMismatch, FrontierCapExceeded
from .intlinalg import IntMatrix, IntVec, cokernel_invariant_factors, integer_kernel, smith_normal_form
from .rootsystem import RootSystem

DEFAULT_BOX_CAP = 10_000_000
DEFAULT_FRONTIER_CAP = 2_000_000


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

    def serialize(self) -> str:
        lines = [str(self.dim)]
        for c in self.congruences:
            lines.append(" ".join(str(x) for x in c.coeffs) + f" mod {c.modulus}")
        return "\n".join(lines) + "\n"


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


def _box_mask(m: CongruenceMonoid, sizes: Sequence[int], box_cap: int, what: str) -> np.ndarray:
    """Boolean mask of the monoid points of prod [0, s_i), after a cap check that allocates nothing.

    Residues are outer sums of a_i * x mod m in int64: dividing a congruence by
    gcd(m, a_1, ..., a_n) makes m the lcm of its per-axis orders, which divides
    prod(z) for the generator orders z; that product is capped here when the
    sizes are z, and otherwise by the box scan that the caller runs first.
    """
    size = prod(sizes)
    if size > box_cap:
        raise BoxCapExceeded(f"{what} has {size} points, box cap is {box_cap}")
    mask = np.ones(tuple(sizes), dtype=bool)
    for c in m.congruences:
        g = gcd(c.modulus, *c.coeffs)
        mod = c.modulus // g
        res = np.zeros((), dtype=np.int64)
        for a, s in zip(c.coeffs, sizes):
            res = np.add.outer(res, np.fromiter((a // g * x % mod for x in range(s)), np.int64, s))
            np.remainder(res, mod, out=res)
        mask &= res == 0
    return mask


def box_elements(m: CongruenceMonoid, box_cap: int = DEFAULT_BOX_CAP) -> tuple[IntVec, ...]:
    """Monoid points of the half-open fundamental box prod [0, z_i), in graded-lex order."""
    pts = np.argwhere(_box_mask(m, m.generator_orders(), box_cap, "box"))
    pts = pts[np.argsort(pts.sum(axis=1), kind="stable")]  # stable on lex rows: graded-lex
    return tuple(map(tuple, pts.tolist()))


def hilbert_basis_box(m: CongruenceMonoid, box_cap: int = DEFAULT_BOX_CAP) -> HilbertBasis:
    """Hilbert basis via the fundamental-box construction.

    The basis is the scaled unit vectors z_i * e_i and the minimal nonzero box
    points: v is irreducible exactly when no nonzero monoid point a != v has
    a <= v, that is, when no nonzero monoid point lies below any v - e_i.
    """
    mask = _box_mask(m, m.generator_orders(), box_cap, "box")
    mask.flat[0] = False  # the origin
    below = mask.copy()  # below[v]: some nonzero monoid point a <= v
    for axis in range(m.dim):
        np.logical_or.accumulate(below, axis=axis, out=below)
    for axis in range(m.dim):
        head = (slice(None),) * axis
        mask[head + (slice(1, None),)] &= ~below[head + (slice(None, -1),)]
    gens = [tuple(zi if j == i else 0 for j in range(m.dim)) for i, zi in enumerate(mask.shape)]
    return HilbertBasis(graded_lex_sorted(gens + np.argwhere(mask).tolist()))


def hilbert_basis_kernel(
    inst: KernelInstance | Sequence[Sequence[int]],
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
) -> HilbertBasis:
    """Hilbert basis of {l in Z+^s : A l = 0} by Contejean-Devie completion.

    Starts from the unit vectors and only grows a candidate t by e_i when
    <A t, A e_i> < 0, pruning anything that dominates a known minimal
    solution.  The frontier cap is a divergence guard.
    """
    if isinstance(inst, KernelInstance):
        rows = [inst.coeffs]
    else:
        rows = [tuple(int(x) for x in r) for r in inst]
    s = len(rows[0])
    cols = [tuple(r[i] for r in rows) for i in range(s)]

    def value(v: IntVec) -> IntVec:
        return tuple(sum(r[i] * v[i] for i in range(s)) for r in rows)

    def dot(a: IntVec, b: IntVec) -> int:
        return sum(x * y for x, y in zip(a, b))

    basis: list[IntVec] = []
    frontier: dict[IntVec, IntVec] = {}
    for i in range(s):
        e = tuple(1 if j == i else 0 for j in range(s))
        frontier[e] = cols[i]
    while frontier:
        nxt: dict[IntVec, IntVec] = {}
        for t, val in frontier.items():
            if not any(val):
                if not any(all(b[i] <= t[i] for i in range(s)) for b in basis):
                    basis.append(t)
                continue
            for i in range(s):
                if dot(val, cols[i]) < 0:
                    t2 = tuple(t[j] + (1 if j == i else 0) for j in range(s))
                    if t2 in nxt:
                        continue
                    if any(all(b[j] <= t2[j] for j in range(s)) for b in basis):
                        continue
                    nxt[t2] = tuple(v + c for v, c in zip(val, cols[i]))
        if len(nxt) > frontier_cap:
            raise FrontierCapExceeded(f"completion frontier grew past {frontier_cap}")
        frontier = nxt
    # final minimality sweep (a solution found early could dominate a later one)
    basis = [
        b
        for b in basis
        if not any(b2 != b and all(b2[i] <= b[i] for i in range(s)) for b2 in basis)
    ]
    return HilbertBasis(graded_lex_sorted(basis))


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


def cell_of(m: CongruenceMonoid, v: Sequence[int]) -> IntVec:
    """The unique cell whose translate contains v."""
    z = m.generator_orders()
    if not m.contains(v):
        raise ValueError("vector is not in the monoid")
    return tuple(x % zi for x, zi in zip(v, z))


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
    grid = _box_mask(m, (bound + 1,) * m.dim, box_cap, "cell-partition grid")
    hit = grid
    for axis, zi in enumerate(z):  # fold the grid onto the box: hit[r] = any grid[r + k z]
        hit = np.pad(hit, [(0, -n % zi if k == axis else 0) for k, n in enumerate(hit.shape)])
        hit = hit.reshape(hit.shape[:axis] + (-1, zi) + hit.shape[axis + 1 :]).any(axis=axis)
    stray = np.argwhere(hit & ~is_cell)
    if len(stray):
        raise AssertionError(f"residue {tuple(stray[0].tolist())} is not a cell")
    if bound >= max(z, default=1) - 1 and (hit != is_cell).any():
        raise AssertionError("some cell received no element despite exhaustive bound")
    return int(grid.sum())


def member_of_generated(v: Sequence[int], gens: Sequence[Sequence[int]]) -> bool:
    """Is v a Z+-combination of gens?  Backtracking with memo, fine at test scale."""
    target = tuple(int(x) for x in v)
    gs = [tuple(int(x) for x in g) for g in gens]
    gs = [g for g in gs if all(a <= b for a, b in zip(g, target))]
    seen: set[IntVec] = set()

    def rec(t: IntVec) -> bool:
        if not any(t):
            return True
        if t in seen:
            return False
        seen.add(t)
        for g in gs:
            if all(a <= b for a, b in zip(g, t)):
                if rec(tuple(b - a for a, b in zip(g, t))):
                    return True
        return False

    return rec(target)
