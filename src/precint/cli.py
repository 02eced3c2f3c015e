"""Command-line front end.

Subcommands: ``solutions`` (anchored solution tables), ``val`` (value of an
element at a point), ``local-basis``, ``global-basis``, and ``verify``.
Output is text by default or JSON with ``--format json``; JSON is stable
byte-for-byte for fixed inputs and seeds.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 missing right bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .errors import MissingRightBoundError, ParseError, PrecintError
from .fields import INFINITY, AlgebraicPoint, RationalFunction
from .exprs import (
    element_str,
    operator_str,
    parse_element,
    parse_operator,
    parse_orbit_key,
    parse_point,
    poly_str,
    rf_str,
)
from .integral import (
    BasisMatrix,
    GlobalRun,
    ShiftSpace,
    global_integral_basis,
    iteration_cap_override,
    local_integral_basis,
)
from .ore import anchored_basis
from .valuation import OrbitAnalysis, ZSpec, val_at
from .verify import certificate, module_equal_at

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_MISSING_BOUND = 3


def _rf_json(f: RationalFunction, var: str) -> dict:
    return {"num": poly_str(f.num, var, compact=True),
            "den": poly_str(f.den, var, compact=True)}


def _basis_json(basis: BasisMatrix, verified_points: List[str]) -> dict:
    return {
        "order": basis.dimension,
        "basis": [[_rf_json(c, "x") for c in row.coords] for row in basis.rows],
        "verified_points": verified_points,
    }


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _parse_bounds(pairs: Optional[List[str]]) -> ZSpec:
    bounds = {}
    for pair in pairs or ():
        key, sep, value = pair.rpartition("=")
        if not sep:
            raise ParseError("expected KEY=INTEGER", pair, 0)
        try:
            bound = int(value)
        except ValueError:
            raise ParseError("right bound must be an integer", pair, len(key) + 1)
        bounds[parse_orbit_key(key)] = bound
    return ZSpec(bounds)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_solutions(args) -> int:
    operator = parse_operator(args.operator).normalized()
    if not operator.is_valid_modulus:
        raise PrecintError("operator must have order >= 1 and nonzero trailing coefficient")
    orbit = parse_point(args.orbit).orbit()
    start, stop = args.start, args.stop
    if start > stop:
        raise PrecintError("--from must not exceed --to")
    anchor = args.anchor if args.anchor is not None else start
    basis = anchored_basis(operator, orbit, anchor)
    rows = []
    for j in range(1, basis.order + 1):
        rows.append([basis.value(j, n) for n in range(start, stop + 1)])
    payload = {
        "operator": operator_str(operator, compact=True),
        "orbit": orbit.orbit_key(),
        "anchor": anchor,
        "from": start,
        "to": stop,
        "rows": [
            {"j": j + 1, "values": [_rf_json(v, "q") for v in row]}
            for j, row in enumerate(rows)
        ],
    }
    header = "n:      " + "\t".join(str(n) for n in range(start, stop + 1))
    lines = [header]
    for j, row in enumerate(rows):
        lines.append(f"b_{j + 1}(n): " + "\t".join(rf_str(v, "q") for v in row))
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_val(args) -> int:
    operator = parse_operator(args.operator).normalized()
    if not operator.is_valid_modulus:
        raise PrecintError("operator must have order >= 1 and nonzero trailing coefficient")
    element = parse_element(args.element, operator.order)
    point = parse_point(args.at)
    analysis = OrbitAnalysis.analyze(operator, point.orbit())
    value = val_at(element, point, analysis)
    rendered = "infinity" if value is INFINITY else value
    payload = {
        "operator": operator_str(operator, compact=True),
        "element": element_str(element.coords, compact=True),
        "point": str(point),
        "val": rendered,
    }
    _emit(args, payload, [f"val_{point}({element_str(element.coords)}) = {rendered}"])
    return EXIT_OK


def _verified_points_of(basis: BasisMatrix, points) -> List[str]:
    out = []
    for point, analysis in points:
        for row in basis.rows:
            v = val_at(row, point, analysis)
            if v < 0:
                raise PrecintError(f"basis row is not integral at {point}")
        out.append(str(point))
    return out


def _notice_skipped_orbits(run: GlobalRun, zspec: ZSpec) -> None:
    """Name on stderr every orbit whose right bound lies left of its left
    edge, so that no point of it was processed."""
    for entry in run.processed:
        key = entry.orbit.orbit_key()
        bound = zspec.bound_for(key)
        edge = entry.analysis.left_edge()
        if bound is not None and bound < edge:
            print(f"notice: right bound {key}={bound} lies left of the left edge "
                  f"{edge} of orbit {key}; no point of this orbit was processed",
                  file=sys.stderr)


def _basis_lines(basis: BasisMatrix, verified: List[str]) -> List[str]:
    lines = [f"B_{i + 1} = {element_str(row.coords)}"
             for i, row in enumerate(basis.rows)]
    if verified:
        lines.append("verified at: " + ", ".join(verified))
    return lines


def _cmd_local_basis(args) -> int:
    operator = parse_operator(args.operator).normalized()
    if not operator.is_valid_modulus:
        raise PrecintError("operator must have order >= 1 and nonzero trailing coefficient")
    point = parse_point(args.at)
    analysis = OrbitAnalysis.analyze(operator, point.orbit())
    basis = local_integral_basis(ShiftSpace(analysis),
                                 BasisMatrix.standard(operator.order), point)
    verified = _verified_points_of(basis, [(point, analysis)])
    _emit(args, _basis_json(basis, verified), _basis_lines(basis, verified))
    return EXIT_OK


def _cmd_global_basis(args) -> int:
    operator = parse_operator(args.operator).normalized()
    if not operator.is_valid_modulus:
        raise PrecintError("operator must have order >= 1 and nonzero trailing coefficient")
    zspec = _parse_bounds(args.right_bound)
    run = global_integral_basis(operator, zspec)
    _notice_skipped_orbits(run, zspec)
    points = [(entry.orbit.shifted(n), entry.analysis)
              for entry in run.processed for n in entry.points]
    verified = _verified_points_of(run.basis, points)
    _emit(args, _basis_json(run.basis, verified),
          _basis_lines(run.basis, verified))
    return EXIT_OK


def _cmd_verify(args) -> int:
    operator = parse_operator(args.operator).normalized()
    if not operator.is_valid_modulus:
        raise PrecintError("operator must have order >= 1 and nonzero trailing coefficient")
    reports = []
    module_checks = []
    if args.at is not None:
        point = parse_point(args.at)
        analysis = OrbitAnalysis.analyze(operator, point.orbit())
        basis = local_integral_basis(ShiftSpace(analysis),
                                     BasisMatrix.standard(operator.order), point)
        rerun = local_integral_basis(ShiftSpace(analysis), basis, point)
        module_checks.append({
            "point": str(point),
            "kind": "idempotent",
            "ok": len(rerun.provenance) == len(basis.provenance),
        })
        reports.append(certificate(operator, basis, point, args.samples, args.seed))
    else:
        zspec = _parse_bounds(args.right_bound)
        run = global_integral_basis(operator, zspec)
        _notice_skipped_orbits(run, zspec)
        for entry in run.processed:
            space = ShiftSpace(entry.analysis)
            for n in entry.points:
                point = entry.orbit.shifted(n)
                reports.append(certificate(operator, run.basis, point,
                                           args.samples, args.seed))
                local = local_integral_basis(
                    space, BasisMatrix.standard(operator.order), point)
                module_checks.append({
                    "point": str(point),
                    "kind": "local-vs-global",
                    "ok": module_equal_at(local, run.basis, point),
                })
    passed = all(r.passed for r in reports) and all(c["ok"] for c in module_checks)
    payload = {
        "operator": operator_str(operator, compact=True),
        "samples": args.samples,
        "seed": args.seed,
        "certificates": [r.to_json_dict() for r in reports],
        "module_checks": module_checks,
        "passed": passed,
    }
    lines = [r.to_text() for r in reports]
    for c in module_checks:
        lines.append(f"module check ({c['kind']}) at {c['point']}: "
                     + ("ok" if c["ok"] else "FAILED"))
    lines.append("verification " + ("passed" if passed else "FAILED"))
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="precint",
        description="Exact local and global integral bases for linear "
                    "recurrence (shift) operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--operator", required=True,
                       help="operator expression, e.g. '(x+2)^2 + x*S^2 + (x+2)*S^3'")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solutions", help="print a table of anchored solutions")
    add_common(p)
    p.add_argument("--orbit", required=True,
                   help="a point of the orbit, e.g. '0' or 'root(x^2-2)'")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--anchor", type=int, default=None,
                   help="anchor of the identity window (default: --from)")
    p.set_defaults(func=_cmd_solutions)

    p = sub.add_parser("val", help="value of an element at a point")
    add_common(p)
    p.add_argument("--element", required=True,
                   help="element of order < r, e.g. 'x*S'")
    p.add_argument("--at", required=True, help="point, e.g. '0' or 'root(x^2-2)+1'")
    p.set_defaults(func=_cmd_val)

    p = sub.add_parser("local-basis", help="local integral basis at a point")
    add_common(p)
    p.add_argument("--at", required=True)
    p.set_defaults(func=_cmd_local_basis)

    p = sub.add_parser("global-basis", help="global integral basis")
    add_common(p)
    p.add_argument("--right-bound", action="append", metavar="ORBIT=R",
                   help="right bound for an orbit, e.g. 'Z=0' (repeatable)")
    p.set_defaults(func=_cmd_global_basis)

    p = sub.add_parser("verify", help="certificates and module-equality checks")
    add_common(p)
    p.add_argument("--at", default=None, help="verify a local basis at this point")
    p.add_argument("--right-bound", action="append", metavar="ORBIT=R")
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        iteration_cap_override()  # reject a bad PRECINT_MAX_ITER before any work
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingRightBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_BOUND
    except PrecintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
