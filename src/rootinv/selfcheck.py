"""Self-check: replays frozen examples from the literature and the shipped fixtures.

Each check returns a one-line detail or raises; run() prints one PASS or FAIL
line per check and a summary, and returns the exit status.
"""

from __future__ import annotations

import functools
import warnings

from .classgroup import class_group, class_group_cross_check
from .laurent import LaurentPoly, is_invariant, orbit_sum_weight_coords
from .monoids import KernelInstance, family_monoid, hilbert_basis_box, hilbert_basis_kernel, verify_cell_partition
from .relations import _FIXTURES, _relations_block
from .reports import (
    e6_residual_hilbert_basis,
    e7_residual_hilbert_basis,
    expected_generator_count_C,
    expected_generator_count_D,
    expected_generators_C,
    expected_generators_D,
    omega_expand,
    report,
    veronese_generators,
)
from .rootsystem import RootSystemType, build
from .weyl import group_order_bfs


_KERNEL_3VAR = {(1, 1, 1), (3, 0, 1), (0, 3, 2)}
_KERNEL_4VAR = {
    (0, 2, 0, 1),
    (1, 0, 1, 1),
    (2, 1, 0, 1),
    (0, 1, 2, 2),
    (4, 0, 0, 1),
    (0, 0, 4, 3),
}
_KERNEL_E6 = {
    (0, 0, 1, 1, 1),
    (1, 0, 0, 1, 1),
    (0, 1, 1, 0, 1),
    (1, 1, 0, 0, 1),
    (0, 0, 3, 0, 1),
    (1, 0, 2, 0, 1),
    (2, 0, 1, 0, 1),
    (3, 0, 0, 0, 1),
    (0, 0, 0, 3, 2),
    (0, 1, 0, 2, 2),
    (0, 2, 0, 1, 2),
    (0, 3, 0, 0, 2),
}


def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def _check_kernel(row: tuple[int, ...], want: set, residual=None) -> str:
    basis = set(hilbert_basis_kernel(KernelInstance(row)))
    _expect(basis == want, f"got {sorted(basis)}")
    if residual is None:
        return f"{len(want)} vectors"
    _expect({v[:-1] for v in basis} == set(residual), "projection mismatch")
    return f"{len(want)} vectors; projection matches residual basis"


def _check_box_kernel_agreement(systems) -> str:
    for rank in range(2, 7):
        m = family_monoid(systems(RootSystemType("A", rank)))
        box = set(hilbert_basis_box(m))
        c = m.congruences[0]
        row = tuple(c.coeffs) + (-c.modulus,)
        lifted = {v[:-1] for v in hilbert_basis_kernel(KernelInstance(row))}
        _expect(box == lifted, f"rank {rank}: box {len(box)} vs kernel {len(lifted)}")
    return "ranks 2..6 agree"


def _check_a2_identities(systems) -> str:
    rs = systems(RootSystemType("A", 2))
    mu = omega_expand(rs, (1, 1))
    p1 = omega_expand(rs, (3, 0))
    p2 = omega_expand(rs, (0, 3))
    three = LaurentPoly.constant(mu.ring, 3)
    _expect(mu**3 == p1 * p2, "cubic relation fails")
    _expect(mu - three == orbit_sum_weight_coords(rs, (1, 1)), "six-term root orbit sum")
    _expect(p1 - mu * 3 + three == orbit_sum_weight_coords(rs, (3, 0)), "first corner identity")
    _expect(p2 - mu * 3 + three == orbit_sum_weight_coords(rs, (0, 3)), "second corner identity")
    return "cubic + 3 orbit-sum identities"


def _relation_check(systems, type_name: str) -> str:
    block = _relations_block(type_name, report(systems(RootSystemType.parse(type_name))), None)
    fx = block["fixture"]
    _expect(fx["all_relations_verify"], "a fixture relation fails")
    _expect(fx["equivalent"], "regeneration not equivalent")
    count = block["count"]
    return f"{fx['relation_count']} fixture relations verified; regeneration of {count} equivalent"


def _check_generator_counts(systems, family: str, ranks: range, count, generators) -> str:
    for n in ranks:
        rep = report(systems(RootSystemType(family, n)))
        _expect(rep.generator_count == count(n), f"{family}{n}: {rep.generator_count}")
        _expect(set(rep.hilbert_basis) == set(generators(n)), f"{family}{n}: basis mismatch")
    return f"n = {ranks[0]}..{ranks[-1]}"


def _check_e7_veronese(systems) -> str:
    residual = set(e7_residual_hilbert_basis())
    _expect(len(residual) == 6, "residual basis size")
    _expect(set(veronese_generators(3)) == residual, "not the quadratic Veronese generators")
    rep = report(systems(RootSystemType("E", 7)))
    _expect(len(rep.free_coordinates) == 4, "free coordinate count")
    _expect(rep.generator_count == 10, "total generator count")
    return "6 residual generators = Veronese d=3; report 4 free + 6"


def _class_table(include_e7: bool) -> list[tuple[str, str]]:
    table: list[tuple[str, str]] = []
    for r in range(1, 8):
        table.append((f"A{r}", "0" if r == 1 else f"Z/{r + 1}"))
    for n in range(2, 7):
        table.append((f"B{n}", "0"))
    for n in range(2, 7):
        table.append((f"C{n}", "0" if n == 2 else "Z/2"))
    for n in range(4, 8):
        table.append((f"D{n}", "Z/4" if n % 2 else "Z/2 x Z/2"))
    table.append(("E6", "Z/3"))
    if include_e7:
        table.append(("E7", "Z/2"))
    table.extend([("G2", "0"), ("F4", "0"), ("E8", "0")])
    return table


def _check_class_groups(systems, include_e7: bool, group_cap: int) -> str:
    for name, want in _class_table(include_e7):
        rs = systems(RootSystemType.parse(name))
        res = class_group_cross_check(rs, group_cap)
        _expect(res.name == want, f"{name}: got {res.name}, want {want}")
    # beyond the scan cap: decided on the root reflections, without enumerating W
    for n in (7, 8):
        rs = systems(RootSystemType("B", n))
        res = class_group(rs, cap=1000)
        _expect(res.name == "0", f"B{n} fallback: got {res.name}")
        _expect(res.method != "exhaustive-scan", "fallback not exercised")
    return "table verified with toric cross-checks"


def _check_orbit_invariance(systems) -> str:
    types = [RootSystemType("A", r) for r in range(1, 6)]
    types += [RootSystemType("B", n) for n in range(2, 6)]
    types += [RootSystemType("C", n) for n in range(2, 6)]
    types += [RootSystemType("D", n) for n in range(4, 6)]
    types.append(RootSystemType("E", 6))
    count = 0
    for t in types:
        rs = systems(t)
        for i in range(rs.rank):
            unit = tuple(1 if j == i else 0 for j in range(rs.rank))
            p = orbit_sum_weight_coords(rs, unit)
            _expect(is_invariant(rs, p), f"{t.name} w{i + 1}")
            count += 1
    return f"{count} fundamental orbit sums invariant"


def _check_hironaka_partition(systems) -> str:
    total = 0
    for t in (
        [RootSystemType("A", r) for r in range(2, 5)]
        + [RootSystemType("C", n) for n in range(2, 7)]
        + [RootSystemType("D", n) for n in range(4, 7)]
    ):
        m = family_monoid(systems(t))
        total += verify_cell_partition(m, 10)
    return f"{total} monoid elements reduced to unique cells"


def _check_weyl_order(systems, type_name: str, want: int, group_cap: int) -> str:
    n = group_order_bfs(systems(RootSystemType.parse(type_name)), group_cap)
    _expect(n == want, f"got {n}")
    return f"|W({type_name})| = {want} by closure"


def _selfcheck_list(include_e7: bool, group_cap: int):
    systems = functools.cache(build)  # each type built once for these checks, and shared by them
    checks = [
        ("hilbert-kernel-3var", lambda: _check_kernel((1, 2, -3), _KERNEL_3VAR)),
        ("hilbert-kernel-4var", lambda: _check_kernel((1, 2, 3, -4), _KERNEL_4VAR)),
        (
            "hilbert-kernel-e6",
            lambda: _check_kernel((1, 2, 1, 2, -3), _KERNEL_E6, e6_residual_hilbert_basis()),
        ),
        ("box-kernel-agreement", lambda: _check_box_kernel_agreement(systems)),
        ("a2-identity-suite", lambda: _check_a2_identities(systems)),
        *((f"relations-{t.lower()}", lambda t=t: _relation_check(systems, t)) for t in _FIXTURES),
        (
            "generator-counts-C",
            lambda: _check_generator_counts(
                systems, "C", range(2, 13), expected_generator_count_C, expected_generators_C
            ),
        ),
        (
            "generator-counts-D",
            lambda: _check_generator_counts(
                systems, "D", range(4, 13), expected_generator_count_D, expected_generators_D
            ),
        ),
        ("e7-residual-veronese", lambda: _check_e7_veronese(systems)),
        ("class-group-table", lambda: _check_class_groups(systems, include_e7, group_cap)),
        ("orbit-sum-invariance", lambda: _check_orbit_invariance(systems)),
        ("hironaka-partition", lambda: _check_hironaka_partition(systems)),
        ("weyl-order-e6", lambda: _check_weyl_order(systems, "E6", 51840, group_cap)),
    ]
    if include_e7:
        checks.append(("weyl-order-e7", lambda: _check_weyl_order(systems, "E7", 2903040, group_cap)))
    return checks


def _run_check(fn) -> tuple[bool, str]:
    try:
        return True, fn()
    except Exception as exc:  # report, never crash the harness
        return False, f"{type(exc).__name__}: {exc}"


def run(include_e7: bool, group_cap: int) -> int:
    checks = _selfcheck_list(include_e7, group_cap)
    failures = 0
    with warnings.catch_warnings():  # the filter ends with the call
        warnings.filterwarnings("ignore", message=".*isomorphic.*")
        for name, fn in checks:
            ok, detail = _run_check(fn)
            status = "PASS" if ok else "FAIL"
            if not ok:
                failures += 1
            print(f"{status}  {name}: {detail}")
    print(f"selfcheck: {len(checks) - failures} passed, {failures} failed")
    return 0 if failures == 0 else 1
