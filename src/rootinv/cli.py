"""Command-line surface: structured reports, raw Hilbert-basis solving,
relation regeneration, class groups, and a replayable self-check.

All commands print a JSON document with a schema_version field and fully
canonical ordering, so identical invocations produce identical bytes; the
document is written as it is made (see _emit).  Each command imports what
it runs when it runs, so a process loads only the modules of its command,
and the parser none that needs numpy.
Exit status: 0 success, 1 verification failure or internal error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

from .errors import (
    DEFAULT_BOX_CAP,
    DEFAULT_GROUP_CAP,
    DEFAULT_ORBIT_CAP,
    DimensionMismatch,
    InvalidRank,
    OrbitCapExceeded,
    RootinvError,
    UsageError,
)

if TYPE_CHECKING:
    from .rootsystem import RootSystemType

SCHEMA_VERSION = "1"
_CELLS = 1 << 12  # Hironaka cells written by one json.dumps


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
    from .rootsystem import RootSystemType

    return RootSystemType.parse(args.type, args.rank)


def cmd_info(args: argparse.Namespace) -> int:
    from .classgroup import weight_quotient
    from .rootsystem import build

    t = _parse_type(args)
    rs = build(t)
    # a finite-type Cartan matrix is positive definite, so its determinant is the order of its cokernel
    quotient = weight_quotient(rs)
    payload = {
        "type": t.name,
        "family": t.family,
        "rank": t.rank,
        "ambient_dimension": rs.ambient_dim,
        "root_count": len(rs.root_coords),
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
    from .reports import fundamental_orbit_sums, report
    from .rootsystem import build

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
        from .relations import _relations_block

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
    from .laurent import _render_pieces
    from .reports import omega_expand

    p = omega_expand(rs, g.coords, orbit_cap, sums)
    return {"name": g.name, "laurent": _Text(_render_pieces(p)), "terms": p.nterms}


def cmd_hilbert(args: argparse.Namespace) -> int:
    from .monoids import KernelInstance, hilbert_basis_box, hilbert_basis_kernel, parse_instance

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
    from .classgroup import class_group_cross_check, weight_quotient
    from .rootsystem import build

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


def cmd_selfcheck(args: argparse.Namespace) -> int:
    from .selfcheck import run

    return run(args.include_e7, args.group_cap)


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
