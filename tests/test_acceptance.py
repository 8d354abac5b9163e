"""End-to-end acceptance suite: one test per shipped guarantee.

Each test checks exact values (tolerance zero) and asserts its wall-clock
budget.  Budgets are generous on purpose; blowing one indicates an
algorithmic regression, not machine noise.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
import warnings
from math import comb

import pytest

from rootinv.classgroup import class_group, class_group_cross_check
from rootinv.laurent import LaurentPoly, is_invariant, orbit_sum_weight_coords
from rootinv.monoids import (
    KernelInstance,
    graded_lex_sorted,
    hilbert_basis_box,
    hilbert_basis_kernel,
    verify_cell_partition,
)
from rootinv.relations import (
    load_fixture,
    relations_bounded,
    relations_equivalent,
    verify_relation,
)
from rootinv.reports import (
    e6_residual_hilbert_basis,
    e7_residual_hilbert_basis,
    expected_generator_count_C,
    expected_generator_count_D,
    expected_generators_C,
    expected_generators_D,
    family_monoid,
    omega_expand,
    report_A,
    report_C,
    report_D,
    report_E6,
    report_E7,
    veronese_structure,
)
from rootinv.rootsystem import RootSystemType, build
from rootinv.weyl import group_order_bfs


def _rs(name: str):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build(RootSystemType.parse(name))


KERNEL_3VAR = {(1, 1, 1), (3, 0, 1), (0, 3, 2)}
KERNEL_4VAR = {
    (0, 2, 0, 1),
    (1, 0, 1, 1),
    (2, 1, 0, 1),
    (0, 1, 2, 2),
    (4, 0, 0, 1),
    (0, 0, 4, 3),
}
KERNEL_5VAR = {
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


def test_criterion_01_kernel_fixtures():
    for coeffs, want in [
        ((1, 2, -3), KERNEL_3VAR),
        ((1, 2, 3, -4), KERNEL_4VAR),
        ((1, 2, 1, 2, -3), KERNEL_5VAR),
    ]:
        t0 = time.monotonic()
        basis = set(hilbert_basis_kernel(KernelInstance(coeffs)))
        elapsed = time.monotonic() - t0
        assert basis == want, coeffs
        assert elapsed < 1.0, (coeffs, elapsed)
    dropped = {v[:-1] for v in KERNEL_5VAR}
    assert dropped == set(e6_residual_hilbert_basis())


def test_criterion_02_box_kernel_agreement():
    t0 = time.monotonic()
    for rank in range(2, 7):  # lattices of the symmetric groups S_3 .. S_7
        m = family_monoid(_rs(f"A{rank}"))
        box = set(hilbert_basis_box(m))
        c = m.congruences[0]
        lifted = {
            v[:-1]
            for v in hilbert_basis_kernel(KernelInstance(tuple(c.coeffs) + (-c.modulus,)))
        }
        assert box == lifted, rank
    assert time.monotonic() - t0 < 10.0


def test_criterion_03_a2_identity_suite():
    t0 = time.monotonic()
    rs = _rs("A2")
    mu = omega_expand(rs, (1, 1))
    p1 = omega_expand(rs, (3, 0))
    p2 = omega_expand(rs, (0, 3))
    three = LaurentPoly.constant(mu.ring, 3)
    assert mu**3 == p1 * p2
    # root orbit and the two corner orbits, written in weight coordinates
    assert mu - three == orbit_sum_weight_coords(rs, (1, 1))
    assert p1 - mu * 3 + three == orbit_sum_weight_coords(rs, (3, 0))
    assert p2 - mu * 3 + three == orbit_sum_weight_coords(rs, (0, 3))
    assert time.monotonic() - t0 < 1.0


def test_criterion_04_relation_regeneration():
    t0 = time.monotonic()
    for type_name, fixture_name, bound, count in [
        ("A2", "a2", 3, 1),
        ("A3", "a3_magma", 4, 6),
        ("E6", "e6_magma", 3, 35),
    ]:
        if type_name == "E6":
            basis = graded_lex_sorted(e6_residual_hilbert_basis())
        else:
            basis = graded_lex_sorted(
                report_A(int(type_name[1]) + 1).hilbert_basis.elements
            )
        fx = load_fixture(fixture_name)
        assert len(fx.relations) == count
        relabeled = fx.relabeled(basis)
        for rel in relabeled:
            assert verify_relation(basis, rel)
        regenerated = relations_bounded(basis, bound)
        assert relations_equivalent(regenerated, relabeled, basis, bound), type_name
    assert time.monotonic() - t0 < 60.0


@pytest.mark.filterwarnings("ignore:.*isomorphic.*")
def test_criterion_05_generator_count_formulas():
    t0 = time.monotonic()
    for n in range(2, 13):
        rep = report_C(n)
        k = (n + 1) // 2
        assert rep.generator_count == n + comb(k, 2) == expected_generator_count_C(n)
        assert tuple(rep.hilbert_basis) == expected_generators_C(n), n
    for n in range(4, 13):
        rep = report_D(n)
        want = (n * n + 6 * n) // 8 if n % 2 == 0 else (n * n + 12 * n + 3) // 8
        assert rep.generator_count == want == expected_generator_count_D(n)
        assert tuple(rep.hilbert_basis) == expected_generators_D(n), n
    assert time.monotonic() - t0 < 30.0


def test_criterion_06_e7_structure():
    t0 = time.monotonic()
    residual = e7_residual_hilbert_basis()
    assert len(residual) == 6
    assert set(residual) == set(veronese_structure(3).generators)
    rep = report_E7()
    assert len(rep.free_coordinates) == 4
    assert set(hilbert_basis_box(rep.residual)) == set(residual)
    assert rep.generator_count == 4 + 6
    assert time.monotonic() - t0 < 1.0


def test_criterion_07_weyl_enumeration():
    assert group_order_bfs(_rs("E6")) == 51840
    t0 = time.monotonic()
    assert group_order_bfs(_rs("E7")) == 2903040
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, elapsed
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert rss_kb < 4 * 1024 * 1024, rss_kb


def test_criterion_08_class_group_table():
    t0 = time.monotonic()
    table = [("A1", "0")]  # sign reflection diagonalizes: polynomial ring
    table += [(f"A{r}", f"Z/{r + 1}") for r in range(2, 8)]
    table += [(f"B{n}", "0") for n in range(2, 7)]
    table += [("C2", "0")] + [(f"C{n}", "Z/2") for n in range(3, 7)]
    table += [(f"D{n}", "Z/4" if n % 2 else "Z/2 x Z/2") for n in range(4, 8)]
    table += [("E6", "Z/3"), ("G2", "0"), ("F4", "0"), ("E8", "0")]
    for name, want in table:
        res = class_group_cross_check(_rs(name))
        assert res.name == want, name
    for name in ("B2", "B3", "B4", "B5", "B6"):
        assert class_group(_rs(name)).method == "exhaustive-scan"
    for n in (7, 8):  # beyond the scan cap the sign-change argument takes over
        res = class_group(_rs(f"B{n}"), cap=1000)
        assert res.name == "0" and res.method == "family-fallback"
    assert time.monotonic() - t0 < 30.0
    t1 = time.monotonic()
    res = class_group_cross_check(_rs("E7"), cap=3_000_000)
    assert res.name == "Z/2" and res.method == "exhaustive-scan"
    assert time.monotonic() - t1 < 120.0


def test_criterion_09_property_suites():
    t0 = time.monotonic()
    systems = [f"A{r}" for r in range(1, 6)]
    systems += [f"B{n}" for n in range(2, 6)]
    systems += [f"C{n}" for n in range(2, 6)]
    systems += [f"D{n}" for n in range(4, 6)]
    systems.append("E6")
    for name in systems:
        rs = _rs(name)
        for i in range(rs.rank):
            unit = tuple(1 if j == i else 0 for j in range(rs.rank))
            assert is_invariant(rs, orbit_sum_weight_coords(rs, unit)), (name, i)
    checked = 0
    for name in (
        [f"A{r}" for r in range(2, 5)]
        + [f"C{n}" for n in range(2, 7)]
        + [f"D{n}" for n in range(4, 7)]
    ):
        checked += verify_cell_partition(family_monoid(_rs(name)), 10)
    assert checked > 1_000_000
    assert time.monotonic() - t0 < 60.0


def test_criterion_10_selfcheck():
    proc = subprocess.run(
        [sys.executable, "-m", "rootinv.cli", "selfcheck"],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},  # finds rootinv as we do
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-1].endswith("0 failed"), lines[-1]
    assert all(ln.startswith("PASS") for ln in lines[:-1]), proc.stdout
    names = {ln.split()[1].rstrip(":") for ln in lines[:-1]}
    assert {
        "hilbert-kernel-3var",
        "hilbert-kernel-4var",
        "hilbert-kernel-e6",
        "box-kernel-agreement",
        "a2-identity-suite",
        "relations-a2",
        "relations-a3",
        "relations-e6",
        "generator-counts-C",
        "generator-counts-D",
        "e7-residual-veronese",
        "class-group-table",
        "orbit-sum-invariance",
        "hironaka-partition",
        "weyl-order-e6",
    } <= names
