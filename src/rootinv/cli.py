"""Command-line surface: structured reports, raw Hilbert-basis solving,
relation regeneration, class groups, and a replayable self-check.

All commands print a JSON document with a schema_version field and fully
canonical ordering, so identical invocations produce identical bytes; the
document is written as it is made (see _emit).
Exit status: 0 success, 1 verification failure or internal error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from collections.abc import Iterable, Iterator

from .classgroup import class_group, class_group_cross_check, weight_quotient
from .errors import (
    DimensionMismatch,
    InvalidRank,
    OrbitCapExceeded,
    RootinvError,
    UsageError,
)
from .laurent import LaurentPoly, _render_pieces, is_invariant, orbit_sum_weight_coords
from .monoids import (
    DEFAULT_BOX_CAP,
    KernelInstance,
    graded_lex_sorted,
    hilbert_basis_box,
    hilbert_basis_kernel,
    parse_instance,
    verify_cell_partition,
)
from .relations import load_fixture, relations_bounded, relations_equivalent, verify_relation
from .reports import (
    InvariantReport,
    e6_residual_hilbert_basis,
    e7_residual_hilbert_basis,
    expected_generator_count_C,
    expected_generator_count_D,
    expected_generators_C,
    expected_generators_D,
    family_monoid,
    fundamental_orbit_sums,
    omega_expand,
    report,
    veronese_generators,
)
from .rootsystem import RootSystemType, build
from .weyl import DEFAULT_GROUP_CAP, DEFAULT_ORBIT_CAP, group_order_bfs

SCHEMA_VERSION = "1"
_CELLS = 1 << 12  # Hironaka cells written by one json.dumps

# Shipped relation fixtures, keyed by type name.
_FIXTURES = {"A2": "a2", "A3": "a3_magma", "E6": "e6_magma"}


def _document(command: str, payload: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "command": command, "payload": payload}


class _Block(list):
    """Consecutive items of a streamed array, written by one json.dumps."""


class _Text:
    """A string given as an iterable of chunks, each written as it is made."""

    def __init__(self, chunks: Iterable[str]):
        self.chunks = chunks


def _emit(doc: dict) -> None:
    """Write doc and a newline to stdout as json.dumps(doc, sort_keys=True, indent=2) would, as it is made.

    A dict is written key by key in sorted order.  An iterator is an array
    whose items are written as they arrive (a _Block item stands for its
    items).  A _Text is one string written a chunk at a time: JSON escapes
    each character on its own, so escaping the chunks one by one gives the
    same bytes.  Every other value is one json.dumps, re-indented to its
    depth.
    """
    write = sys.stdout.write

    def put(v, pad: str) -> None:
        if isinstance(v, dict) and v:
            sep = "{"
            for k in sorted(v):
                write(f"{sep}{pad}  {json.dumps(k)}: ")
                put(v[k], pad + "  ")
                sep = ","
            write("{}" if sep == "{" else pad + "}")
        elif isinstance(v, Iterator):
            sep = "["
            for item in v:
                if not isinstance(item, _Block):
                    write(sep + pad + "  ")
                    put(item, pad + "  ")
                elif item:  # '[' pad '  ' items ... pad ']', written without its brackets
                    write(sep + json.dumps(item, sort_keys=True, indent=2)[1:-2].replace("\n", pad))
                else:
                    continue
                sep = ","
                del item  # dropped before the next item is made
            write("[]" if sep == "[" else pad + "]")
        elif isinstance(v, _Text):
            write('"')
            for chunk in v.chunks:
                write(json.dumps(chunk)[1:-1])
            write('"')
        else:
            write(json.dumps(v, sort_keys=True, indent=2).replace("\n", pad))

    put(doc, "\n")
    write("\n")


def _parse_type(args: argparse.Namespace) -> RootSystemType:
    return RootSystemType.parse(args.type, args.rank)


def cmd_info(args: argparse.Namespace) -> int:
    t = _parse_type(args)
    rs = build(t)
    # a finite-type Cartan matrix is positive definite, so its determinant is the order of its cokernel
    quotient = weight_quotient(rs)
    payload = {
        "type": t.name,
        "family": t.family,
        "rank": t.rank,
        "ambient_dimension": rs.ambient_dim,
        "root_count": len(rs.roots),
        "weyl_order": rs.weyl_order,
        "cartan_matrix": [list(r) for r in rs.cartan.rows],
        "cartan_determinant": quotient.order,
        "fundamental_weights_alpha": [
            [str(x) for x in w] for w in rs.fundamental_weights_alpha
        ],
        "weight_orders": list(rs.weight_orders),
        "weight_quotient": quotient.name,
    }
    _emit(_document(f"info {t.name}", payload))
    return 0


def _monoid_payload(m) -> dict:
    return {
        "dim": m.dim,
        "congruences": [
            {"coefficients": list(c.coeffs), "modulus": c.modulus} for c in m.congruences
        ],
    }


def cmd_invariants(args: argparse.Namespace) -> int:
    t = _parse_type(args)
    if args.degree_bound is not None and not args.relations:
        raise UsageError("--degree-bound applies only with --relations")
    if args.degree_bound is not None and args.degree_bound < 1:
        raise UsageError(f"--degree-bound must be at least 1, got {args.degree_bound}")
    rs = build(t)
    rep = report(rs, args.box_cap)
    failed = False
    payload = {
        "type": t.name,
        "rank": t.rank,
        "monoid": _monoid_payload(rep.monoid),
        "weight_orders": list(rs.weight_orders),
        "hilbert_basis": [list(v) for v in rep.hilbert_basis],
        "generator_count": rep.generator_count,
        "primary_generators": [list(v) for v in rep.primaries],
        "secondary_generators": [list(v) for v in rep.secondaries],
        "free_coordinates": [i + 1 for i in rep.free_coordinates],
        "polynomial": rep.polynomial,
        "generators": [
            {"name": g.name, "coords": list(g.coords), "role": g.role, "omega": g.omega}
            for g in rep.generators
        ],
        "structure": rep.structure,
        "class_group": rep.class_group_note,
    }
    if rep.laurent_unit is not None:
        payload["laurent_unit"] = rep.laurent_unit
    if rep.residual is not None:
        payload["residual"] = _monoid_payload(rep.residual)
    if args.hironaka:
        cells = rep.cells  # built before the first byte, so that the box cap fails with no output
        payload["hironaka_cells"] = (_Block(cells[i : i + _CELLS]) for i in range(0, len(cells), _CELLS))
        payload["hironaka_cell_count"] = len(cells)
    if args.relations:
        payload["relations"] = _relations_block(t.name, rep, args.degree_bound)
        fx = payload["relations"].get("fixture")
        failed = fx is not None and not (fx["equivalent"] and fx["all_relations_verify"])
    if args.expand:
        # every fundamental orbit sum o(w_i) is computed once, before the first byte; the first
        # generator that the orbit cap stops ends the expansions
        sums: dict = {}
        expanded = []
        try:
            for g in rep.generators:
                fundamental_orbit_sums(rs, g.coords, args.orbit_cap, sums)
                expanded.append(g)
        except OrbitCapExceeded:
            payload["expansion_truncated"] = True
        payload["expansion"] = (_expansion(rs, g, args.orbit_cap, sums) for g in expanded)
    _emit(_document(f"invariants {t.name}", payload))
    return 1 if failed else 0


def _expansion(rs, g, orbit_cap: int, sums: dict) -> dict:
    """One generator's expansion entry; the polynomial is dropped once its text is written."""
    p = omega_expand(rs, g.coords, orbit_cap, sums)
    return {"name": g.name, "laurent": _Text(_render_pieces(p)), "terms": p.nterms}


def _relations_block(type_name: str, rep: InvariantReport, degree_bound: int | None) -> dict:
    """Binomial relations of the generators up to a degree bound, against the shipped fixture.

    The generators are the residual's Hilbert basis, or else the full one.  As
    M = Z+^free x M_res, the residual's basis is the basis elements that vanish
    on the free coordinates, projected onto the others.  The default bound is
    the fixture's highest relation degree (3 without a fixture).  Equivalence
    is claimed only at a bound that reaches every fixture relation.
    """
    name = _FIXTURES.get(type_name)
    fixture = load_fixture(name) if name else None
    top = max(r.degree() for r in fixture.relations) if fixture else 3
    bound = degree_bound or top
    free = rep.free_coordinates if rep.residual is not None else ()
    basis = graded_lex_sorted(
        tuple(x for i, x in enumerate(h) if i not in free)
        for h in rep.hilbert_basis
        if not any(h[i] for i in free)
    )
    rels = relations_bounded(basis, bound)
    block = {
        "degree_bound": bound,
        "generators": [list(v) for v in basis],
        "binomials": [r.format() for r in rels],
        "count": len(rels),
    }
    if fixture:
        fx = fixture.relabeled(basis)
        block["fixture"] = {
            "name": name,
            "relation_count": len(fx),
            "equivalent": bound >= top and relations_equivalent(rels, fx, basis, bound),
            "all_relations_verify": all(verify_relation(basis, r) for r in fx),
        }
    return block


def cmd_hilbert(args: argparse.Namespace) -> int:
    try:
        if args.ker is not None:
            inst = KernelInstance(tuple(int(x) for x in args.ker.split()))
        else:
            with open(args.monoid) as fh:
                inst = parse_instance(fh.read())
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if isinstance(inst, KernelInstance):
        basis = hilbert_basis_kernel(inst)
        payload = {"kind": "kernel", "coefficients": list(inst.coeffs)}
    else:
        basis = hilbert_basis_box(inst, args.box_cap)
        payload = {"kind": "congruence", "monoid": _monoid_payload(inst)}
    payload.update(basis=[list(v) for v in basis], count=len(basis))
    _emit(_document("hilbert", payload))
    return 0


def cmd_classgroup(args: argparse.Namespace) -> int:
    t = _parse_type(args)
    rs = build(t)
    res = class_group_cross_check(rs, args.group_cap)
    # with no diagonalizable reflection the class group is the weight quotient itself
    quotient = res.group if res.diagonalizable_rank == 0 else weight_quotient(rs)
    payload = {
        "type": t.name,
        "class_group": res.name,
        "invariant_factors": list(res.group.invariant_factors),
        "diagonalizable_reflection_rank": res.diagonalizable_rank,
        "method": res.method,
        "weight_quotient": quotient.name,
        "toric_cross_check": "agree",
    }
    _emit(_document(f"classgroup {t.name}", payload))
    return 0


# ---------------------------------------------------------------------------
# selfcheck


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


def cmd_selfcheck(args: argparse.Namespace) -> int:
    checks = _selfcheck_list(args.include_e7, args.group_cap)
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


# ---------------------------------------------------------------------------


def cap(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be nonnegative, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootinv",
        description="Multiplicative invariants of root lattices: exact reports, "
        "Hilbert bases, binomial relations, class groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_type_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("type", help="family letter (A,B,C,D) or fused name (E6, F4, G2)")
        p.add_argument("rank", nargs="?", type=int, default=None, help="rank for letter families")

    p_info = sub.add_parser("info", help="root-system data: roots, Cartan, weights, orders")
    add_type_args(p_info)
    p_info.set_defaults(func=cmd_info)

    p_inv = sub.add_parser("invariants", help="invariant-algebra report for one type")
    add_type_args(p_inv)
    p_inv.add_argument("--expand", action="store_true", help="Laurent expansions of generators")
    p_inv.add_argument("--relations", action="store_true", help="regenerate binomial relations")
    p_inv.add_argument("--hironaka", action="store_true", help="include decomposition cells")
    p_inv.add_argument("--degree-bound", type=int, default=None, metavar="K")
    p_inv.add_argument("--orbit-cap", type=cap, default=DEFAULT_ORBIT_CAP)
    p_inv.add_argument("--box-cap", type=cap, default=DEFAULT_BOX_CAP)
    p_inv.set_defaults(func=cmd_invariants)

    p_hil = sub.add_parser("hilbert", help="Hilbert basis of a kernel or congruence monoid")
    src = p_hil.add_mutually_exclusive_group(required=True)
    src.add_argument("--ker", metavar="COEFFS", help='integer row, e.g. "1 2 -3"')
    src.add_argument("--monoid", metavar="FILE", help="instance file")
    p_hil.add_argument("--box-cap", type=cap, default=DEFAULT_BOX_CAP)
    p_hil.set_defaults(func=cmd_hilbert)

    p_cg = sub.add_parser("classgroup", help="divisor class group of the invariant algebra")
    add_type_args(p_cg)
    p_cg.add_argument("--group-cap", type=cap, default=DEFAULT_GROUP_CAP)
    p_cg.set_defaults(func=cmd_classgroup)

    p_sc = sub.add_parser("selfcheck", help="replay the frozen examples; exit 0 iff all pass")
    p_sc.add_argument("--include-e7", action="store_true", help="also run the heavy enumeration")
    p_sc.add_argument("--group-cap", type=cap, default=DEFAULT_GROUP_CAP)
    p_sc.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidRank, DimensionMismatch, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # raised inside the mathematics, not by the input
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except RootinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
