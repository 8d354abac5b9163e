"""Weyl groups as exact integer matrices in the simple-root basis.

A group element is the matrix whose j-th column holds the simple-root
coordinates of the image of alpha_j; elements therefore act on column
vectors of root-lattice coordinates.  Bulk enumeration runs on compact
numpy int8 stacks (entries of Weyl matrices are bounded by the highest
root's coordinates) with exact integer arithmetic throughout.  It is
graded by Coxeter length: s_i w is longer than w exactly when the i-th
weight coordinate of w(rho) is positive.  Group levels, orbits and roots
all come from one canonical-parent walk on integer levels,
rootsystem.orbit_levels, so nothing is deduplicated: every w != 1 has the
one parent s_i w where i is its first descent, the first negative weight
coordinate of w(rho); for an orbit point mu, i is the first negative
coordinate of mu (Casselman, Invent. Math. 116, 1994).  An orbit's size
|W| / |W_J| is known before it is walked, so its cap is checked first.  The
reflection scan does not walk W itself: it factors W as a product A B of
parabolic coset walks of about sqrt|W| elements each, and reads the trace
of every product a b from one matrix product of the two stacks.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DEFAULT_GROUP_CAP, DEFAULT_ORBIT_CAP, GroupCapExceeded, NotInvolution, OrbitCapExceeded
from .intlinalg import RatVector
from .rootsystem import RootSystem, dominant, macdonald_order, orbit_levels, sorted_ratvectors

_BLOCK = 1 << 18  # traces one step of the reflection scan forms at once; bounds its memory


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
    """Orbit of an ambient vector: the canonical-parent walk of its rational weight coordinates."""
    vq = tuple(Fraction(x) for x in v)
    perp = tuple(a - b for a, b in zip(vq, rs.span_component(vq)))
    amb = []
    for m in orbit_weight_coords(rs, rs.pairing_with_simple(vq), cap):
        amb.append(tuple(a + b for a, b in zip(rs.from_weight_coords(m), perp)))
    return OrbitSet(sorted_ratvectors(amb))


def orbit_weight_coords(
    rs: RootSystem, m: Sequence[int | Fraction], cap: int = DEFAULT_ORBIT_CAP
) -> list[tuple[int | Fraction, ...]]:
    """Orbit of a vector given in weight coordinates (rational off the weight lattice).

    The orbit of its dominant point top has |W| / |W_J| points, J the zero
    coordinates of top, so an orbit beyond the cap raises OrbitCapExceeded
    before the walk starts.  The walk (rootsystem.orbit_levels) runs on
    d * top for the common denominator d of top, so each point comes once
    and exact; AssertionError unless it finds |W| / |W_J| points.
    """
    top = dominant(rs.cartan.rows, m)
    on_j = ~rs.root_coords[:, [x != 0 for x in top]].any(axis=1)  # the roots of W_J
    size = rs.weyl_order // macdonald_order(rs.root_coords[on_j])
    if size > cap:
        raise OrbitCapExceeded(f"orbit larger than {cap}; raise it with --orbit-cap")
    d = lcm(*(Fraction(x).denominator for x in top))
    walk = orbit_levels(rs.cartan.rows, rs.rtype.coxeter_number, [int(x * d) for x in top])
    pts = np.concatenate([mu for mu, _, _ in walk], axis=1).T.tolist()
    if len(pts) != size:
        raise AssertionError(f"the orbit walk found {len(pts)} points, |W| / |W_J| gives {size}")
    return [tuple(p) for p in pts] if d == 1 else [tuple(Fraction(x, d) for x in p) for p in pts]


def _group_levels(
    rs: RootSystem, cap: int, top: np.ndarray | None = None, first: int = 0
) -> Iterator[np.ndarray]:
    """Walk the dominant weight top (rho by default) under s_first, ..., s_{n-1}.

    Yields int8 stacks (F, n, n) by Coxeter length: one element w of W_J,
    J = {first, ..., n - 1}, for each point w(top) of W_J top.  From rho
    these are all of W_J; from omega_first, the minimal representatives of
    the cosets of its stabilizer W_J', J' = J - {first} (Humphreys,
    Reflection Groups and Coxeter Groups, 1990, 1.10 and 1.12).  Raises
    GroupCapExceeded when |W| > cap, before the first level, and
    AssertionError when the walk of rho under all of W does not add up to |W|.

    The levels follow rootsystem.orbit_levels; a child s_i w changes only row
    i of w.  A matrix entry is a simple-root coordinate of a root, at most
    the highest root's largest coefficient (6, on E8), so int8.
    """
    if rs.weyl_order > cap:
        raise GroupCapExceeded(f"|W| = {rs.weyl_order} exceeds cap {cap}; raise it with --group-cap")
    n = rs.rank
    cart = rs.cartan.rows
    nbrs = [[j for j in range(n) if j != i and cart[i][j]] for i in range(n)]
    level = np.eye(n, dtype=np.int8)[None, :, :]
    total = 0
    for _, gen, parent in orbit_levels(cart, rs.rtype.coxeter_number, (1,) * n if top is None else top, first):
        yield level
        total += level.shape[0]
        bounds = np.searchsorted(gen, range(first, n + 1)).tolist()  # gen ascends
        mats = [level[:0]]  # the last level has no children
        for i, lo, hi in zip(range(first, n), bounds, bounds[1:]):
            new = level[parent[lo:hi]]
            row = -new[:, i, :]
            for j in nbrs[i]:
                row -= cart[i][j] * new[:, j, :]
            new[:, i, :] = row
            mats.append(new)
        level = np.concatenate(mats)
    if top is None and first == 0 and total != rs.weyl_order:
        raise AssertionError(f"closure found {total} elements, the order formula gives {rs.weyl_order}")


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


def _parabolic_factors(rs: RootSystem, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """W as a product A B, every w = a b once, as two int8 stacks of about sqrt|W| each.

    Let J_m = {m, ..., n - 1}.  U_m, the walk of omega_m under W_{J_m}, holds
    one element of each coset of W_{J_(m+1)} in W_{J_m}, so W = U_0 U_1 ...
    U_{p-1} W_{J_p} for every p (Bourbaki, Lie Groups and Lie Algebras,
    Ch. IV, 1, Ex. 3).  A is the product of the first p factors, p the first
    with |A|^2 >= |W|, and B = W_{J_p}, the walk of rho under J_p.  Raises
    GroupCapExceeded when |W| > cap, before the first walk, and
    AssertionError unless |A| |B| = |W|.
    """
    n, order = rs.rank, rs.weyl_order
    omega = np.eye(n, dtype=np.int64)  # row m: the weight coordinates of omega_m

    def walk(top, first):
        return np.concatenate(list(_group_levels(rs, cap, top, first)))

    a, p = walk(omega[0], 0), 1
    while len(a) ** 2 < order:
        u = walk(omega[p], p)
        a = (a[:, None].astype(np.int16) @ u[None]).astype(np.int8).reshape(-1, n, n)
        p += 1
    b = walk(None, p)
    if len(a) * len(b) != order:
        raise AssertionError(f"the factors hold {len(a)} x {len(b)} elements, the order formula gives {order}")
    return a, b


def reflections(rs: RootSystem, cap: int = DEFAULT_GROUP_CAP) -> tuple[WeylElement, ...]:
    """All reflections in W, by exhaustive scan (trace filter, involution check).

    A reflection squares to 1 and has trace n - 2.  Conversely, an element of
    finite order with w^2 = 1 has eigenvalues +-1, and trace n - 2 leaves
    exactly one -1, so 1 - w has rank 1.

    W is scanned as the products a b of the two stacks of _parabolic_factors.
    The trace of every product, tr(a b) = sum_ij a_ij b_ji, is an entry of
    one matrix product of the flattened stacks, formed _BLOCK traces at a
    time; only the products with trace n - 2 are multiplied out and squared.
    That product runs in int16, modulo 2^16, without BLAS threads.  A
    wrapped trace could only add candidates, and the trace of an involution
    lies in [-n, n], so trace = n - 2 mod 2^16 and w^2 = 1 still single out
    the reflections.  (No trace wraps below rank 31: an entry is a
    simple-root coordinate of a root, at most 6 in absolute value, so
    |tr| <= 36 n^2.)
    """
    n = rs.rank
    a, b = _parabolic_factors(rs, cap)
    step_b = min(len(b), _BLOCK)
    step_a = max(1, _BLOCK // step_b)
    flat_a = a.reshape(len(a), n * n).astype(np.int16)
    flat_b = np.ascontiguousarray(b.transpose(2, 1, 0).reshape(n * n, len(b)), dtype=np.int16)  # column l: b_l^T
    eye = np.eye(n, dtype=np.int64)
    found = []
    for i in range(0, len(a), step_a):
        for j in range(0, len(b), step_b):
            traces = np.einsum("ak,kb->ab", flat_a[i : i + step_a], flat_b[:, j : j + step_b])
            ka, kb = np.divmod(np.flatnonzero(traces == n - 2), traces.shape[1])
            w = a[i + ka].astype(np.int64) @ b[j + kb]
            found.append(w[(w @ w == eye).all(axis=(1, 2))])
    return tuple(_elements(_sorted_stack(np.concatenate(found))))


def _sorted_stack(mats: np.ndarray) -> np.ndarray:
    """A stack (F, n, n) in the order of WeylElement.sort_key."""
    return mats[np.lexsort(mats.reshape(len(mats), -1).T[::-1])]


def coroot_pairings(rs: RootSystem) -> tuple[np.ndarray, np.ndarray]:
    """The positive roots beta as rows b of simple-root coordinates, and rows c of their coroot pairings.

    c_j = <alpha_j, beta^vee> = 2 (alpha_j, beta) / (beta, beta) = 2 (G b)_j / (b . G b)
    for the Gram matrix G of the simple roots; s_beta sends alpha_j to alpha_j - c_j beta,
    so its matrix is 1 - b (x) c (Bourbaki, Ch. VI, 1.1).  A remainder in that division
    raises ValueError.
    """
    b = rs.root_coords[(rs.root_coords >= 0).all(axis=1)]  # the positive roots
    gb = b @ rs.gram
    c, rem = np.divmod(2 * gb, (b * gb).sum(axis=1, keepdims=True))
    if rem.any():
        raise ValueError(f"{rs.rtype.name}: a coroot pairing <alpha_j, beta^vee> is not an integer")
    return b, c


def root_reflections(rs: RootSystem) -> tuple[WeylElement, ...]:
    """The |Phi+| root reflections 1 - b (x) c (see coroot_pairings), the reflections of W, built at once."""
    b, c = coroot_pairings(rs)
    return tuple(_elements(_sorted_stack(np.eye(rs.rank, dtype=np.int64) - b[:, :, None] * c[:, None, :])))


def h1_cyclic2(w: WeylElement) -> int:
    """Order of H^1(<w>, Z^n) = ker(1+w) / im(1-w) for an involution w.

    Every Z[C2]-lattice is a sum of trivial, sign and regular summands (Reiner,
    Proc. Amer. Math. Soc. 8, 1957).  Only a sign summand has H^1 != 0, namely
    Z/2, and 1 - w has rank 0, 1 and 1 on the three over Q but 0, 0 and 1 over
    F_2.  So log2 |H^1| = rank_Q(1-w) - rank_F2(1-w), where rank_Q(1-w) =
    (n - tr w) / 2 as w has eigenvalues +-1.  Raises NotInvolution unless w
    squares to 1.
    """
    m = np.array(w.matrix, dtype=np.int64)
    if not (m @ m == np.eye(w.n, dtype=np.int64)).all():
        raise NotInvolution("element does not square to the identity")
    basis: list[int] = []  # rows of 1 - w mod 2 as bit masks, each clear of the leading bits of those before it
    for row in (np.eye(w.n, dtype=np.int64) - m).tolist():
        r = sum((x & 1) << j for j, x in enumerate(row))
        for p in basis:
            r = min(r, r ^ p)
        if r:
            basis.append(r)
    return 2 ** ((w.n - int(np.trace(m))) // 2 - len(basis))
