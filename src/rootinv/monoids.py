"""Affine monoids cut out of Z+^n by linear congruences.

Two independent Hilbert-basis routes are provided: a fundamental-box scan
(for finite-index congruence sublattices) and a Contejean-Devie style
completion procedure for kernels of integer rows, run one total degree at a
time on integer arrays.  They are used to cross-check each other in the
test suite.

One boolean box mask feeds the cells and the box basis.  In M = L cap Z+^n,
a <= v in M puts v - a in M, so the basis's box points are the minimal nonzero
ones: no other nonzero monoid point lies below them.  The cells are checked
without that mask, by a count over congruence residues that lists no point:
degree by degree on the box, and in total on the grids of the partition check.
"""

from __future__ import annotations

from collections import Counter
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
_MAX_DEGREE = 10_000  # the largest degree bound up to which a one-row completion is run


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


def _box_mask(m: CongruenceMonoid, box_cap: int) -> np.ndarray:
    """Boolean mask of the monoid points of the box prod [0, z_i), after cap checks that
    allocate nothing.

    The mask has only the axes of generator order above 1 (see _box_points): an
    axis of order 1 adds nothing to a residue.  Residues are outer sums of
    a_i * x mod m in the smallest unsigned type that holds 2m (one byte per
    point for m < 128): dividing a congruence by gcd(m, a_1, ..., a_n) makes m
    the lcm of its per-axis orders, which divides the capped volume prod(z).
    """
    z = m.generator_orders()
    size = prod(z)
    if size > box_cap:
        raise BoxCapExceeded(f"box has {size} points, box cap is {box_cap}; raise it with --box-cap")
    long = [k for k, s in enumerate(z) if s > 1]
    if len(long) > _MAX_AXES:
        raise BoxCapExceeded(f"box has {len(long)} axes longer than 1, the box scan handles at most {_MAX_AXES}")
    mask = None  # the first congruence's zero test is the mask, so no all-true mask is held beside it
    for c in m.congruences:
        g = gcd(c.modulus, *c.coeffs)
        mod = c.modulus // g
        dtype = np.min_scalar_type(2 * mod)  # holds the sum of two residues
        res = np.zeros((), dtype=dtype)
        for k in long:
            a = c.coeffs[k] // g
            res = np.add.outer(res, np.fromiter((a * x % mod for x in range(z[k])), dtype, z[k]))
            np.remainder(res, mod, out=res)
        hit = np.asarray(res == 0)  # an array also when no axis is long
        mask = hit if mask is None else np.logical_and(mask, hit, out=mask)
    return np.ones(tuple(z[k] for k in long), dtype=bool) if mask is None else mask


def _box_points(mask: np.ndarray, z: Sequence[int]) -> np.ndarray:
    """The points of a _box_mask over the generator orders z, in lex order, with all len(z) coordinates."""
    pts = np.zeros((int(mask.sum()), len(z)), dtype=np.int64)
    pts[:, [k for k, s in enumerate(z) if s > 1]] = np.argwhere(mask)
    return pts


def box_elements(m: CongruenceMonoid, box_cap: int = DEFAULT_BOX_CAP) -> tuple[IntVec, ...]:
    """Monoid points of the half-open fundamental box prod [0, z_i), in graded-lex order."""
    z = m.generator_orders()
    pts = _box_points(_box_mask(m, box_cap), z)
    pts = pts[np.argsort(pts.sum(axis=1), kind="stable")]  # stable on lex rows: graded-lex
    return tuple(map(tuple, pts.tolist()))


def hilbert_basis_box(m: CongruenceMonoid, box_cap: int = DEFAULT_BOX_CAP) -> HilbertBasis:
    """Hilbert basis via the fundamental-box construction.

    The basis is the scaled unit vectors z_i * e_i and the minimal nonzero box
    points: v is irreducible exactly when no nonzero monoid point a != v has
    a <= v, that is, when no nonzero monoid point lies below any v - e_i.
    """
    z = m.generator_orders()
    mask = _box_mask(m, box_cap)
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
    ints otherwise.  frontier_cap bounds the points of one degree.  The minimal
    solutions of one row a have degree at most max a+ + max |a-| (Lambert,
    1987), which for a / gcd(a) past _MAX_DEGREE is refused before the first degree.
    """
    rows = [inst.coeffs] if isinstance(inst, KernelInstance) else [tuple(int(x) for x in r) for r in inst]
    if len(rows) == 1:
        bound = (max(0, *rows[0]) - min(0, *rows[0])) // (gcd(*rows[0]) or 1)
        if bound > _MAX_DEGREE:
            raise FrontierCapExceeded(
                f"the row's minimal solutions may reach degree {bound} (max a+ + max |a-| over the row's gcd), "
                f"past the limit of {_MAX_DEGREE}"
            )
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


def _residue_sum(m: CongruenceMonoid, weights: Sequence[Sequence[int]]) -> int:
    """Sum of prod w_i[r_i] over the monoid points r of the box prod [0, len(w_i)), listing none.

    A dynamic program over the axes whose state is the tuple of residues
    sum a_i r_i mod m, one per congruence, reached so far.  A state is the
    image of a point in Z^dim / L, so there are at most lattice-index states,
    and the index divides the box volume prod(z) that box_elements caps.  The
    last axis only has to bring each state back to zero: one lookup a state.
    """
    mods = [c.modulus for c in m.congruences]
    sums = {(0,) * len(mods): 1}
    for i, w in enumerate(weights):
        pushed: dict = {}  # the weights of axis i, by the residues they add
        for x, wx in enumerate(w):
            step = tuple(c.coeffs[i] * x % c.modulus for c in m.congruences)
            pushed[step] = pushed.get(step, 0) + wx
        if i == len(weights) - 1:
            back = (tuple(-r % n for r, n in zip(state, mods)) for state in sums)
            return sum(acc * pushed.get(key, 0) for acc, key in zip(sums.values(), back))
        nxt: dict = {}
        for state, acc in sums.items():
            for step, wx in pushed.items():
                key = tuple((r + d) % n for r, d, n in zip(state, step, mods))
                nxt[key] = nxt.get(key, 0) + acc * wx
        sums = nxt
    return 1  # dimension 0: the origin alone, with the empty product of weights


def hironaka_cells(m: CongruenceMonoid, box_cap: int = DEFAULT_BOX_CAP) -> tuple[IntVec, ...]:
    """Coset representatives for the free decomposition of the monoid.

    These are exactly the box points; the monoid is the disjoint union of
    translates cell + sum Z+ (z_i e_i).  Their degree histogram, the numerator
    of the Hilbert series sum_c t^|c| / prod (1 - t^z_i), is checked against
    the residue count: with weights b^x for a base b = 2^e above every count,
    that count is the box's histogram written in base b.
    """
    cells = box_elements(m, box_cap)
    z = m.generator_orders()
    e = prod(z).bit_length()
    histogram = sum(k << e * d for d, k in Counter(map(sum, cells)).items())
    if histogram != _residue_sum(m, [[1 << e * x for x in range(zi)] for zi in z]):
        raise AssertionError("the cells' degree histogram differs from the box's")
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
    """Check the free decomposition on all elements with coords <= bound, listing none of them.

    The cells must be distinct monoid points of the box prod [0, z_i).  Their
    translates by sum Z+ z_i e_i are then disjoint sets of monoid points, and
    the cell c meets the grid [0, bound]^dim in prod w_i[c_i] points, where
    w_i[r] counts the x in [0, bound] with x = r mod z_i.  The cells partition
    the grid's monoid points exactly when these counts add up to the residue
    count of the grid.  Returns the number of monoid points in the grid;
    raises AssertionError on any violation, and BoxCapExceeded when the box
    of the cells has more than box_cap points.
    """
    cells = hironaka_cells(m, box_cap)
    if len(set(cells)) != len(cells):
        raise AssertionError("cells are not distinct")
    z = m.generator_orders()
    for c in cells:
        if not (m.contains(c) and all(x < zi for x, zi in zip(c, z))):
            raise AssertionError(f"cell {c} is not a monoid point of the box")
    weights = [[len(range(r, bound + 1, zi)) for r in range(zi)] for zi in z]
    covered = sum(prod(w[x] for w, x in zip(weights, c)) for c in cells)
    total = _residue_sum(m, weights)
    if covered != total:
        raise AssertionError(f"the cells cover {covered} of the {total} monoid points with coordinates <= {bound}")
    return total
