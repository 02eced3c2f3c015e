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
from typing import Callable, Dict, List, Optional

from .errors import MissingRightBoundError, ParseError, PrecintError
from .fields import INFINITY, AlgebraicPoint, RationalFunction
from .exprs import (
    element_str,
    operator_str,
    parse_element,
    parse_operator,
    parse_orbit,
    parse_point,
    poly_str,
    rf_str,
)
from .integral import (
    BasisMatrix,
    GlobalRun,
    ShiftSpace,
    global_integral_basis,
    local_integral_basis,
)
from .ore import OreOperator, SolutionBasis
from .valuation import OrbitAnalysis, val_at
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


def _emit(args, payload: dict, text_lines: Callable[[], List[str]]) -> None:
    """Print the payload as JSON, or the lines, built only then, as text."""
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines():
            print(line)


def _parse_bounds(pairs: Optional[List[str]]) -> Dict[str, int]:
    bounds = {}
    for pair in pairs or ():
        key, sep, value = pair.rpartition("=")
        if not sep:
            raise ParseError("expected KEY=INTEGER", pair, 0)
        try:
            bound = int(value)
        except ValueError:
            raise ParseError("right bound must be an integer", pair, len(key) + 1)
        orbit = parse_orbit(key).orbit_key()
        if orbit in bounds:
            raise PrecintError(f"orbit {orbit} has two right bounds, "
                               f"{orbit}={bounds[orbit]} and {pair}")
        bounds[orbit] = bound
    return bounds


def _modulus(args) -> OreOperator:
    """The operator of --operator, normalized and checked as a modulus."""
    operator = parse_operator(args.operator).normalized()
    if not operator.is_valid_modulus:
        raise PrecintError("operator must have order >= 1 and nonzero trailing coefficient")
    return operator


def _at(args, operator: OreOperator):
    """The point of --at and the valued space of its orbit."""
    point = parse_point(args.at)
    return point, ShiftSpace(OrbitAnalysis.analyze(operator, point.orbit()))


def _local_basis(space: ShiftSpace, point: AlgebraicPoint) -> BasisMatrix:
    """The local integral basis at the point, from the standard basis."""
    return local_integral_basis(space, BasisMatrix.standard(space.dimension), point)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_solutions(args) -> int:
    operator = _modulus(args)
    orbit = parse_orbit(args.orbit)
    start, stop = args.start, args.stop
    if start > stop:
        raise PrecintError("--from must not exceed --to")
    anchor = args.anchor if args.anchor is not None else start
    basis = SolutionBasis(operator, orbit, anchor)
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

    def lines() -> List[str]:
        out = ["n:      " + "\t".join(str(n) for n in range(start, stop + 1))]
        for j, row in enumerate(rows):
            out.append(f"b_{j + 1}(n): " + "\t".join(rf_str(v, "q") for v in row))
        return out

    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_val(args) -> int:
    operator = _modulus(args)
    element = parse_element(args.element, operator.order)
    point, space = _at(args, operator)
    value = space.val(element, point)
    rendered = "infinity" if value is INFINITY else value
    payload = {
        "operator": operator_str(operator, compact=True),
        "element": element_str(element.coords, compact=True),
        "point": str(point),
        "val": rendered,
    }
    _emit(args, payload,
          lambda: [f"val_{point}({element_str(element.coords)}) = {rendered}"])
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


def _skipped_orbits(run: GlobalRun, bounds: Dict[str, int]) -> List[str]:
    """One message for every right bound that treats no point: a bound
    left of its orbit's left edge, and a bound whose orbit is not among
    the orbits the operator's extreme coefficients single out."""
    out = []
    keys = set()
    for entry in run.processed:
        key = entry.analysis.orbit.orbit_key()
        keys.add(key)
        bound = bounds.get(key)
        edge = entry.analysis.left_edge
        if bound is not None and bound < edge:
            out.append(f"right bound {key}={bound} lies left of the left edge "
                       f"{edge} of orbit {key}")
    for key, bound in bounds.items():
        if key not in keys:
            out.append(f"right bound {key}={bound} names no orbit of the "
                       f"operator's extreme coefficients")
    return out


def _basis_lines(basis: BasisMatrix, verified: List[str]) -> List[str]:
    lines = [f"B_{i + 1} = {element_str(row.coords)}"
             for i, row in enumerate(basis.rows)]
    if verified:
        lines.append("verified at: " + ", ".join(verified))
    return lines


def _cmd_local_basis(args) -> int:
    operator = _modulus(args)
    point, space = _at(args, operator)
    basis = _local_basis(space, point)
    verified = _verified_points_of(basis, [(point, space.analysis)])
    _emit(args, _basis_json(basis, verified),
          lambda: _basis_lines(basis, verified))
    return EXIT_OK


def _cmd_global_basis(args) -> int:
    operator = _modulus(args)
    bounds = _parse_bounds(args.right_bound)
    run = global_integral_basis(operator, bounds)
    for message in _skipped_orbits(run, bounds):
        print(f"notice: {message}; no point of this orbit was processed",
              file=sys.stderr)
    points = [(entry.analysis.orbit.shifted(n), entry.analysis)
              for entry in run.processed for n in entry.points]
    verified = _verified_points_of(run.basis, points)
    _emit(args, _basis_json(run.basis, verified),
          lambda: _basis_lines(run.basis, verified))
    return EXIT_OK


# the most samples `verify` takes per point; at 10-25 microseconds per
# sample and point (README, Command line), a run at the limit takes up to
# about half a minute per point
MAX_SAMPLES = 10 ** 6


def _cmd_verify(args) -> int:
    if args.samples > MAX_SAMPLES:
        raise PrecintError(f"--samples must be at most {MAX_SAMPLES}, "
                           f"got {args.samples}")
    operator = _modulus(args)
    reports = []
    module_checks = []
    if args.at is not None:
        point, space = _at(args, operator)
        basis = _local_basis(space, point)
        rerun = local_integral_basis(space, basis, point)
        module_checks.append({
            "point": str(point),
            "kind": "idempotent",
            "ok": len(rerun.provenance) == len(basis.provenance),
        })
        reports.append(certificate(operator, basis, point, args.samples, args.seed))
    else:
        bounds = _parse_bounds(args.right_bound)
        run = global_integral_basis(operator, bounds)
        skipped = _skipped_orbits(run, bounds)
        if skipped:
            raise PrecintError(f"{skipped[0]}; no point of this orbit would be verified")
        for entry in run.processed:
            space = ShiftSpace(entry.analysis)
            for n in entry.points:
                point = entry.analysis.orbit.shifted(n)
                reports.append(certificate(operator, run.basis, point,
                                           args.samples, args.seed))
                local = _local_basis(space, point)
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

    def lines() -> List[str]:
        out = [r.to_text() for r in reports]
        for c in module_checks:
            out.append(f"module check ({c['kind']}) at {c['point']}: "
                       + ("ok" if c["ok"] else "FAILED"))
        out.append("verification " + ("passed" if passed else "FAILED"))
        return out

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
                   help="the orbit: 'Z', its polynomial or one of its points, "
                        "e.g. '0', 'x^2-2' or 'root(x^2-2)+1'")
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
    where = p.add_mutually_exclusive_group()
    where.add_argument("--at", default=None, help="verify a local basis at this point")
    where.add_argument("--right-bound", action="append", metavar="ORBIT=R",
                       help="right bound for a global run (not with --at)")
    p.add_argument("--samples", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrecintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, MissingRightBoundError):
            return EXIT_MISSING_BOUND
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
