"""Weyl groups as exact integer matrices in the simple-root basis.

A group element is the matrix whose j-th column holds the simple-root
coordinates of the image of alpha_j; elements therefore act on column
vectors of root-lattice coordinates.  Bulk enumeration runs on compact
numpy int8 stacks (entries of Weyl matrices are bounded by the highest
root's coordinates) with exact integer arithmetic throughout.  It is
graded by Coxeter length: s_i w is longer than w exactly when the i-th
weight coordinate of w(rho) is positive.  Group levels, orbits and roots
all walk one canonical-parent tree, so nothing is deduplicated: every
w != 1 has the one parent s_i w where i is its first descent, the first
negative weight coordinate of w(rho); for an orbit point mu, i is the first
negative coordinate of mu (Casselman, Invent. Math. 116, 1994).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GroupCapExceeded, NotInvolution, OrbitCapExceeded
from .intlinalg import RatVector
from .rootsystem import RootSystem, dominant, orbit_tree, sorted_ratvectors

DEFAULT_ORBIT_CAP = 10_000_000
DEFAULT_GROUP_CAP = 4_000_000

Q = Fraction


class WeylElement:
    """Immutable integer matrix in simple-root coordinates, hashable."""

    __slots__ = ("n", "_data")

    def __init__(self, rows: Iterable[Sequence[int]]):
        mat = tuple(tuple(int(x) for x in r) for r in rows)
        n = len(mat)
        if any(len(r) != n for r in mat):
            raise ValueError("square matrix required")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_data", array("h", [x for r in mat for x in r]).tobytes())

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        flat = array("h")
        flat.frombytes(self._data)
        n = self.n
        return tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("immutable")

    def __hash__(self) -> int:
        return hash(self._data)

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self._data == other._data

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        a, b = (np.frombuffer(w._data, dtype=np.int16).reshape(w.n, w.n) for w in (self, other))
        return WeylElement((a.astype(np.int64) @ b).tolist())

    def is_identity(self) -> bool:
        return self._data == np.eye(self.n, dtype=np.int16).tobytes()

    def sort_key(self):
        return self.matrix

    def __repr__(self) -> str:
        return f"WeylElement({self.matrix})"


def simple_reflections(rs: RootSystem) -> tuple[WeylElement, ...]:
    """Matrices of the simple reflections: s_i = id - e_i (x) cartan-row_i."""
    n = rs.rank
    out = []
    for i in range(n):
        rows = [[(1 if k == j else 0) for j in range(n)] for k in range(n)]
        for j in range(n):
            rows[i][j] -= rs.cartan[i, j]
        out.append(WeylElement(rows))
    return tuple(out)


@dataclass(frozen=True)
class OrbitSet:
    """Canonically sorted Weyl orbit, in ambient coordinates."""

    vectors: tuple[RatVector, ...]

    @property
    def size(self) -> int:
        return len(self.vectors)


def orbit(rs: RootSystem, v: Sequence[Fraction | int], cap: int = DEFAULT_ORBIT_CAP) -> OrbitSet:
    """Orbit of an ambient vector: BFS on its rational weight coordinates."""
    vq = tuple(Q(x) for x in v)
    perp = tuple(a - b for a, b in zip(vq, rs.span_component(vq)))
    amb = []
    for m in orbit_weight_coords(rs, rs.pairing_with_simple(vq), cap):
        amb.append(tuple(a + b for a, b in zip(rs.from_weight_coords(m), perp)))
    return OrbitSet(sorted_ratvectors(amb))


def orbit_weight_coords(
    rs: RootSystem, m: Sequence[int | Fraction], cap: int = DEFAULT_ORBIT_CAP
) -> list[tuple[int | Fraction, ...]]:
    """Orbit of a vector given in weight coordinates (rational off the weight lattice).

    Walks the canonical-parent tree from the orbit's dominant point, so each
    point comes once; raises OrbitCapExceeded as soon as a point beyond the
    cap is reached.
    """
    cart = rs.cartan.rows
    pts = []
    for mu in orbit_tree(cart, dominant(cart, m)):
        if len(pts) == cap:
            raise OrbitCapExceeded(f"orbit larger than {cap}; raise it with --orbit-cap")
        pts.append(mu)
    return pts


def _group_levels(rs: RootSystem, cap: int) -> Iterator[np.ndarray]:
    """Yield the elements of W by Coxeter length, as int8 stacks (F, n, n).

    Raises GroupCapExceeded when |W| > cap, before the first level, and
    AssertionError when the levels do not add up to |W|.  Each element is
    built once, from its canonical parent (see rootsystem.orbit_tree): w(rho)
    is carried in weight coordinates, and s_i w is a child of w when
    (w rho)_i > 0 and coordinates 0..i-1 of s_i w(rho) are all positive.
    That is decided on the whole level before any row is gathered; s_i then
    changes only row i of w, and coordinate i and its (at most 3) Cartan
    neighbours of w(rho).

    Dtype bounds: a coordinate of w(rho) is <rho, w^-1 alpha_i^vee>, a
    coroot's height, so at most h - 1 in absolute value, and w(rho) is kept in
    the smallest signed type that holds h - 1 (int8 while h <= 128: every
    exceptional type and every classical type up to rank 64).  A matrix entry
    is a simple-root coordinate of a root, at most the highest root's largest
    coefficient (6, on E8), so int8.  Intermediates may wrap: the arithmetic
    is modular, and every result lies in range.
    """
    if rs.weyl_order > cap:
        raise GroupCapExceeded(f"|W| = {rs.weyl_order} exceeds cap {cap}; raise it with --group-cap")
    n = rs.rank
    cart = rs.cartan.rows
    nbrs = [[j for j in range(n) if j != i and cart[i][j]] for i in range(n)]
    level = np.eye(n, dtype=np.int8)[None, :, :]
    rho = np.ones((n, 1), dtype=_rho_dtype(rs))  # rho[j, f]: weight coordinate j of w_f(rho)
    total = 0
    while level.shape[0]:
        yield level
        total += level.shape[0]
        mats, rhos = [], []
        for i in range(n):
            ri = rho[i]
            first = ri > 0  # s_i w is one step longer
            for j in range(i):  # coordinate j of s_i w(rho) is rho_j - c_ji rho_i
                first &= (rho[j] - cart[j][i] * ri if cart[j][i] else rho[j]) > 0
            idx = np.flatnonzero(first)
            new, r = level[idx], rho[:, idx]
            row, ri = -new[:, i, :], r[i].copy()
            for j in nbrs[i]:
                row -= cart[i][j] * new[:, j, :]
                r[j] -= cart[j][i] * ri
            new[:, i, :], r[i] = row, -ri
            mats.append(new)
            rhos.append(r)
        level, rho = np.concatenate(mats), np.concatenate(rhos, axis=1)
    if total != rs.weyl_order:
        raise AssertionError(f"closure found {total} elements, the order formula gives {rs.weyl_order}")


def _rho_dtype(rs: RootSystem) -> np.dtype:
    """Smallest signed type holding +-(h - 1), h = |Phi| / rank the Coxeter number."""
    return np.min_scalar_type(-(len(rs.roots) // rs.rank))


def group_order_bfs(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> int:
    """|W| by closure of the simple reflections; raises GroupCapExceeded when |W| > cap."""
    return sum(level.shape[0] for level in _group_levels(rs, cap))


def _elements(stack: np.ndarray) -> list[WeylElement]:
    """WeylElements of an integer stack (F, n, n), built from its int16 bytes."""
    n = stack.shape[-1]
    out = []
    for m in stack.astype(np.int16):
        w = object.__new__(WeylElement)
        object.__setattr__(w, "n", n)
        object.__setattr__(w, "_data", m.tobytes())
        out.append(w)
    return out


def enumerate_group(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> frozenset[WeylElement]:
    """All Weyl group elements; raises GroupCapExceeded when |W| > cap."""
    return frozenset(w for level in _group_levels(rs, cap) for w in _elements(level))


def reflections(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> tuple[WeylElement, ...]:
    """All reflections in W, by exhaustive scan (trace prefilter, involution check).

    A reflection squares to 1 and has trace n - 2.  Conversely, an element of
    finite order with w^2 = 1 has eigenvalues +-1, and trace n - 2 leaves
    exactly one -1, so 1 - w has rank 1.
    """
    n = rs.rank
    eye = np.eye(n, dtype=np.int64)
    found = []
    for level in _group_levels(rs, cap):
        cand = level[np.trace(level, axis1=1, axis2=2) == n - 2].astype(np.int64)
        square = np.einsum("fij,fjk->fik", cand, cand)
        found.extend(_elements(cand[(square == eye).all(axis=(1, 2))]))
    found.sort(key=WeylElement.sort_key)
    return tuple(found)


def root_reflections(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The |Phi+| root reflections, the reflections of W, in integer arithmetic.

    For a positive root beta with simple-root coordinates b (a row of
    RootSystem.root_coords), s_beta sends alpha_j to alpha_j - <alpha_j,
    beta^vee> beta, so its matrix is 1 - b (x) c with c_j = <alpha_j, beta^vee>
    = 2 (alpha_j, beta) / (beta, beta) = 2 (G b)_j / (b . G b) for the Gram
    matrix G of the simple roots (Bourbaki, Ch. VI, 1.1).  All of them are
    built at once; a remainder in that division raises ValueError.
    """
    b = rs.root_coords[(rs.root_coords >= 0).all(axis=1)]  # the positive roots
    gb = b @ rs.gram
    c, rem = np.divmod(2 * gb, (b * gb).sum(axis=1, keepdims=True))
    if rem.any():
        raise ValueError(f"{rs.rtype.name}: a coroot pairing <alpha_j, beta^vee> is not an integer")
    mats = np.eye(rs.rank, dtype=np.int64) - b[:, :, None] * c[:, None, :]
    flat = mats.reshape(len(mats), -1)
    return tuple(_elements(mats[np.lexsort(flat.T[::-1])]))  # the order of WeylElement.sort_key


def h1_cyclic2(w: WeylElement) -> int:
    """Order of H^1(<w>, Z^n) = ker(1+w) / im(1-w) for an involution w.

    Every Z[C2]-lattice is a sum of trivial, sign and regular summands
    (Reiner, Proc. Amer. Math. Soc. 8, 1957).  Only a sign summand has
    H^1 != 0, namely Z/2, and 1 - w has rank 0, 1 and 1 on the three over Q
    but 0, 0 and 1 over F_2.  So |H^1| = 2^(rank_Q(1-w) - rank_F2(1-w)), where
    rank_Q(1-w) = (n - tr w) / 2 as w has eigenvalues +-1, and the F_2 rank
    comes from XOR elimination on the rows of 1 - w mod 2, packed as Python ints.
    """
    n = w.n
    a = np.frombuffer(w._data, dtype=np.int16).reshape(n, n).astype(np.int64)
    if not (a @ a == np.eye(n, dtype=np.int64)).all():
        raise NotInvolution("element does not square to the identity")
    basis: list[int] = []  # reduced rows; each clears the top bit of the next ones
    for i, row in enumerate(a.tolist()):
        bits = sum(((x + (i == j)) & 1) << j for j, x in enumerate(row))  # row i of 1 - w mod 2
        for b in basis:
            bits = min(bits, bits ^ b)
        if bits:
            basis.append(bits)
    return 2 ** ((n - int(np.trace(a))) // 2 - len(basis))


@dataclass(frozen=True)
class DiagonalizableReflections:
    """Diagonalizable reflections of W on the root lattice.

    They generate a normal elementary abelian 2-subgroup whose rank equals
    their number.
    """

    rank: int
    generators: tuple[WeylElement, ...]
    method: str


def diagonalizable_reflection_subgroup(
    rs: RootSystem, cap: int = DEFAULT_GROUP_CAP
) -> DiagonalizableReflections:
    """Subgroup generated by reflections with nontrivial H^1 (diagonalizable ones).

    The reflections of W are its root reflections, so those are the ones
    examined, for every type.  The method label says how they were checked:

    - ``"exhaustive-scan"``: |W| <= cap, and a reflection scan over all of W
      found exactly the root reflections (AssertionError otherwise);
    - ``"family-fallback"``: |W| > cap, and W was not enumerated.
    """
    refl = root_reflections(rs)
    method = "family-fallback"
    if rs.weyl_order <= cap:
        if reflections(rs, cap) != refl:
            raise AssertionError(f"{rs.rtype.name}: the reflection scan disagrees with the root reflections")
        method = "exhaustive-scan"
    diag = tuple(r for r in refl if h1_cyclic2(r) == 2)
    return DiagonalizableReflections(len(diag), diag, method)

