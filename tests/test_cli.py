"""Command-line behavior: output shapes, exit codes, and round-trips."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precint import cli
from precint import (
    AlgebraicPoint,
    BasisMatrix,
    ParseError,
    Poly,
    parse_element,
    parse_operator,
    parse_orbit,
    parse_point,
    element_str,
    operator_str,
)
from conftest import CUBIC


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- solutions ---------------------------------------------------------------


def test_solutions_table_row_for_row(capsys):
    code, out, _ = run_cli(
        capsys, "solutions", "--operator", CUBIC, "--orbit", "0",
        "--from", "-2", "--to", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["anchor"] == -2
    values = {(row["j"], n): v
              for row in payload["rows"]
              for n, v in zip(range(-2, 3), row["values"])}
    assert values[(1, 1)] == {"num": "-q", "den": "1"}
    assert values[(1, 2)] == {"num": "-q+q^2", "den": "1+q"}
    assert values[(2, 2)] == {"num": "-1-q", "den": "1"}
    assert values[(3, 1)] == {"num": "2-q", "den": "q"}
    assert values[(3, 2)] == {"num": "2-3*q+q^2", "den": "q+q^2"}
    assert values[(1, -2)] == {"num": "1", "den": "1"}


def test_solutions_identity_block(capsys):
    code, out, _ = run_cli(
        capsys, "solutions", "--operator", "S^2 - 1", "--orbit", "0",
        "--from", "0", "--to", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["values"] == [{"num": "1", "den": "1"},
                                            {"num": "0", "den": "1"}]
    assert payload["rows"][1]["values"] == [{"num": "0", "den": "1"},
                                            {"num": "1", "den": "1"}]


def test_solutions_anchor_defaults_to_from(capsys):
    code, out, _ = run_cli(
        capsys, "solutions", "--operator", "S - (x+1)", "--orbit", "0",
        "--from", "0", "--to", "1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["anchor"] == 0
    assert payload["rows"][0]["values"][1] == {"num": "1+q", "den": "1"}


# -- val ----------------------------------------------------------------------


@pytest.mark.parametrize("element,expected", [
    ("S", -1),
    ("1", 0),
    ("x*S", 0),
])
def test_val_examples(capsys, element, expected):
    code, out, _ = run_cli(
        capsys, "val", "--operator", CUBIC, "--element", element,
        "--at", "0", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["val"] == expected


def test_val_rejects_elements_of_full_order(capsys):
    code, _, err = run_cli(
        capsys, "val", "--operator", CUBIC, "--element", "S^3", "--at", "0",
    )
    assert code == 2
    assert "reduce" in err


# -- bases ----------------------------------------------------------------------


def test_local_basis_output(capsys):
    code, out, _ = run_cli(
        capsys, "local-basis", "--operator", CUBIC, "--at", "0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3
    assert payload["verified_points"] == ["0"]
    assert payload["basis"][1] == [
        {"num": "-2+x", "den": "x^2"},
        {"num": "1", "den": "x"},
        {"num": "0", "den": "1"},
    ]


def test_global_basis_output(capsys):
    code, out, _ = run_cli(
        capsys, "global-basis", "--operator", CUBIC, "--right-bound", "Z=0",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_points"] == ["-2", "-1", "0"]
    assert payload["basis"][2][2] == {"num": "1", "den": "1+x"}


def test_global_basis_trivial_operator(capsys):
    code, out, _ = run_cli(
        capsys, "global-basis", "--operator", "S^2 - 1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["basis"] == [
        [{"num": "1", "den": "1"}, {"num": "0", "den": "1"}],
        [{"num": "0", "den": "1"}, {"num": "1", "den": "1"}],
    ]


def test_missing_right_bound_names_the_orbit(capsys):
    code, _, err = run_cli(
        capsys, "global-basis", "--operator", CUBIC,
    )
    assert code == 3
    assert "'Z'" in err
    assert "[1, 0, -1]" in err


def test_missing_right_bound_hint_runs_as_printed(capsys):
    """The suggested argument, with R filled in, is one argparse reads as
    the option's value although the orbit key begins with '-'."""
    code, _, err = run_cli(capsys, "global-basis", "--operator", "x^2 - 2 + S^2")
    assert code == 3
    hint = err.split("(pass ", 1)[1].split(")", 1)[0]
    assert hint == "--right-bound=-2+x^2=R"
    code, out, _ = run_cli(capsys, "global-basis", "--operator", "x^2 - 2 + S^2",
                           hint.replace("=R", "=1"))
    assert code == 0
    assert out


def test_parse_error_reports_position(capsys):
    code, _, err = run_cli(
        capsys, "val", "--operator", "x + ", "--element", "1", "--at", "0",
    )
    assert code == 2
    assert "position" in err


def test_right_bound_left_of_the_orbit_is_noticed(capsys):
    code, out, err = run_cli(
        capsys, "global-basis", "--operator", CUBIC, "--right-bound", "Z=-50",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verified_points"] == []
    assert "Z=-50" in err
    assert "left edge -2 of orbit Z" in err
    # verify would check nothing there, so it fails instead of passing
    code, out, err = run_cli(
        capsys, "verify", "--operator", CUBIC, "--right-bound", "Z=-50",
        "--samples", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: right bound Z=-50 lies left of the left edge")
    assert "left edge -2 of orbit Z" in err


@pytest.mark.parametrize("bound, canonical", [("x^2-2=1", "-2+x^2=1"),
                                              ("x-1/2=3", "-1/2+x=3")])
def test_right_bound_of_no_orbit_is_noticed(capsys, bound, canonical):
    """x + S has the one orbit Z: a bound for any other orbit is reported,
    and leaves the output of global-basis as it is without it."""
    argv = ["--operator", "x + S", "--right-bound", "Z=0"]
    code, expected, err = run_cli(capsys, "global-basis", *argv, "--format", "json")
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, "global-basis", *argv, "--right-bound", bound,
                             "--format", "json")
    assert code == 0
    assert out == expected
    assert err == (f"notice: right bound {canonical} names no orbit of the "
                   f"operator's extreme coefficients; no point of this orbit "
                   f"was processed\n")
    # verify would check nothing for that bound, so it fails instead
    code, out, err = run_cli(capsys, "verify", *argv, "--right-bound", bound,
                             "--samples", "1")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: right bound {canonical} names no orbit")


def test_bound_inside_the_orbit_has_no_notice(capsys):
    code, _, err = run_cli(
        capsys, "global-basis", "--operator", CUBIC, "--right-bound", "Z=0",
    )
    assert code == 0
    assert err == ""


# -- verify ------------------------------------------------------------------------


def test_verify_global_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--operator", CUBIC, "--right-bound", "Z=0",
        "--samples", "15", "--seed", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["certificates"]) == 3
    assert all(c["ok"] for c in payload["module_checks"])


def test_verify_local_mode(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--operator", CUBIC, "--at", "0",
        "--samples", "10", "--seed", "4",
    )
    assert code == 0
    assert "verification passed" in out


@pytest.mark.parametrize("value", ["0", "-3"])
def test_verify_rejects_sample_counts_below_one(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--operator", CUBIC, "--right-bound", "Z=0",
                  "--samples", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples: must be an integer >= 1" in captured.err


def test_verify_refuses_more_samples_than_the_limit(capsys, monkeypatch):
    """More than MAX_SAMPLES is refused before the operator is even parsed;
    the limit itself gets past the check."""
    def no_work(args):
        raise AssertionError("verify started work")

    monkeypatch.setattr(cli, "_modulus", no_work)
    argv = ["verify", "--operator", CUBIC, "--right-bound", "Z=0", "--samples"]
    for samples in (cli.MAX_SAMPLES + 1, 10 ** 30):
        assert cli.main(argv + [str(samples)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --samples must be at most "
                                f"{cli.MAX_SAMPLES}, got {samples}\n")
    with pytest.raises(AssertionError, match="started work"):
        cli.main(argv + [str(cli.MAX_SAMPLES)])


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    import precint.verify as verify_mod

    real = cli.certificate

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        violation = verify_mod.CertificateViolation(0, (0,), 0, True)
        return verify_mod.CertificateReport(
            report.point, report.samples, report.seed, report.window,
            (violation,))

    monkeypatch.setattr(cli, "certificate", failing)
    code, out, _ = run_cli(
        capsys, "verify", "--operator", CUBIC, "--right-bound", "Z=0",
        "--samples", "2", "--seed", "0",
    )
    assert code == 1
    assert "FAILED" in out


# -- points -----------------------------------------------------------------------


def test_val_reads_zero_padded_literals_inside_root(capsys):
    """`root(...)` is read on the operator parser's token stream, so a
    literal means there what it means in `--operator`."""
    code, out, err = run_cli(capsys, "val", "--operator", "x^2-30+S^2",
                             "--element", "1", "--at", "root(x^2-030)")
    assert (code, out, err) == (0, "val_root(-30+x^2)(1) = 0\n", "")


@pytest.mark.parametrize("operator, argv, key, named", [
    ("x^2-30+S^2", ("solutions", "--orbit", "root(x^2-030)", "--from", "0",
                    "--to", "0"), "orbit", "-30+x^2"),
    ("x^2-30+S^2", ("global-basis", "--right-bound", "root(x^2-030)=1"),
     "verified_points", ["root(-30+x^2)", "root(-30+x^2)+1"]),
    ("x^2-2+S^2", ("local-basis", "--at", "root(x^2-02)"),
     "verified_points", ["root(-2+x^2)"]),
])
def test_every_point_option_reads_root_on_one_grammar(capsys, operator, argv,
                                                      key, named):
    code, out, err = run_cli(capsys, *argv, "--operator", operator,
                             "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)[key] == named


@pytest.mark.parametrize("operator, bound, keys", [
    ("x + S", 3, ["Z", "x", "0", "root(x)", "root(x-3)-3", "-3", "x+7"]),
    ("(2*x-1) + S", 2, ["1/2", "root(2*x-1)", "2*x-1", "-1/2+x", "5/2"]),
    ("x^2 - 2 + S^2", 1, ["x^2-2", "root(x^2-2)+1", "root(x^2-2*x-1)",
                          "x^2-2*x-1", "-2+x^2"]),
])
def test_every_name_of_an_orbit_keys_the_same_right_bound(capsys, operator,
                                                          bound, keys):
    """An orbit is named by Z, its polynomial or any of its points; each
    name counts the bound from the orbit's root, not from the point named."""
    assert len({parse_orbit(key) for key in keys}) == 1
    outputs = set()
    for key in keys:
        code, out, err = run_cli(capsys, "global-basis", f"--operator={operator}",
                                 f"--right-bound={key}={bound}", "--format", "json")
        assert (code, err) == (0, ""), key
        outputs.add(out)
    assert len(outputs) == 1
    basis = json.loads(outputs.pop())["basis"]
    assert any(c["den"] != "1" for row in basis for c in row)


@pytest.mark.parametrize("names", [
    ["x^2-2", "root(x^2-2)", "root(x^2-2*x-1)-1", "2*x^2-4"],
    ["0", "x", "Z", "x+7", "root(x-3)"],
])
def test_every_name_of_an_orbit_gives_the_same_solution_table(capsys, names):
    outputs = set()
    for name in names:
        code, out, err = run_cli(capsys, "solutions", "--operator", "x^2 - 2 + S^2",
                                 f"--orbit={name}", "--from", "-1", "--to", "2")
        assert (code, err) == (0, ""), name
        outputs.add(out)
    assert len(outputs) == 1


@pytest.mark.parametrize("key, message", [
    ("x^2", "orbit key must be an irreducible polynomial (at position 0: 'x^2')"),
    ("1/x", "expected a polynomial, not a quotient (at position 0: '1/x')"),
])
@pytest.mark.parametrize("option", ["--right-bound", "--orbit"])
def test_a_name_that_is_no_orbit_is_refused(capsys, key, message, option):
    if option == "--orbit":
        argv = ["solutions", "--orbit", key, "--from", "0", "--to", "1"]
    else:
        argv = ["global-basis", "--right-bound", f"{key}=1"]
    code, out, err = run_cli(capsys, *argv, "--operator", "x + S")
    assert (code, out, err) == (2, "", f"error: {message}\n")


IRREDUCIBLE = [(-2, 0, 1), (-30, 0, 1), (1, 0, 1), (-1, -2, 1),
               (1, -3, 0, 1), (1, -6, 0, 1), (-2, 0, 0, 10)]


@st.composite
def padded_points(draw):
    """The text of root(p)+k with zero-padded literals and extra spaces,
    beside the point it names."""
    coeffs = draw(st.sampled_from(IRREDUCIBLE))
    offset = draw(st.integers(-3, 3))

    def pad():
        return " " * draw(st.integers(0, 2))

    def literal(n):
        return pad() + "0" * draw(st.integers(0, 2)) + str(n) + pad()

    terms = []
    for k, c in enumerate(coeffs):
        if c:
            power = "" if k == 0 else "*x" + ("" if k == 1 else "^" + literal(k))
            terms.append(("-" if c < 0 else "+") + literal(abs(c)) + power)
    text = f"root({pad()}{''.join(terms)})"
    if offset:
        text += pad() + ("-" if offset < 0 else "+") + literal(abs(offset))
    return text, AlgebraicPoint(Poly(list(coeffs)), offset)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(padded_points())
def test_padded_points_parse_to_the_canonical_point(case):
    text, point = case
    assert parse_point(text) == point
    assert parse_point(str(point)) == point


@pytest.mark.parametrize("text, message, position", [
    ("root(x^2-2*)", "expected a value", 11),
    ("root(1/x)", "expected a polynomial, not a quotient", 5),
    ("root(y)", "unknown symbol 'y'", 5),
    ("root(x^2-2", "expected ')'", 10),
    ("1/0", "division by zero", 1),
])
def test_errors_in_a_point_carry_absolute_positions(capsys, text, message, position):
    with pytest.raises(ParseError) as info:
        parse_point(text)
    assert info.value.position == position
    code, out, err = run_cli(capsys, "val", "--operator", "x+S", "--element", "1",
                             "--at", text)
    assert (code, out) == (2, "")
    assert err == f"error: {message} (at position {position}: {text!r})\n"


@pytest.mark.parametrize("text, value", [
    ("(1+1)/3", Fraction(2, 3)), ("1/-2", Fraction(-1, 2)),
])
def test_a_rational_point_is_a_constant_expression(text, value):
    assert parse_point(text) == AlgebraicPoint.from_rational(value)


# Operators with an orbit of degree 2 or 3 beside another orbit.  A combine at
# a point of norm N multiplies the replaced row by N'/N, and N' vanishes at
# points of lower degree: processed in ascending degree, the orbit of degree 2
# undid the work at the integer 1, and one of degree 3 at root(x^2-2)+1.
SEVERAL_ORBITS = [
    ("(x^2-2)*(x+1) + S + (x^2-2)*S^2 + x*S^3", "x^2-2=1", "Z=2"),
    ("(x^3-6*x+1)*(x^2-2) + x*S + (x^2-2)*S^2", "x^3-6*x+1=1", "x^2-2=1"),
    ("(x^3-3*x+1)*(x+1) + x*S + (x+1)*S^2", "x^3-3*x+1=1", "Z=0"),
    ("x*(x^3-3*x+1) + S + (x^3-3*x+1)*S^2", "x^3-3*x+1=1", "Z=2"),
    ("(x^2+1)*(x-1) + x*S + (x-1)*S^2", "x^2+1=1", "Z=2"),
    ("(x-1)*(x^2-3) + S + (x^2-3)*S^2", "x^2-3=1", "Z=2"),
    ("(x^2-3)*(x+2) + S + (x^2-3)*S^2 + x*S^3", "x^2-3=1", "Z=2"),
]


@pytest.mark.parametrize("operator, bound, other", SEVERAL_ORBITS)
def test_global_basis_over_several_orbits_is_maximal_everywhere(capsys, operator,
                                                                bound, other):
    code, out, err = run_cli(capsys, "verify", "--operator", operator,
                             "--right-bound", bound, "--right-bound", other,
                             "--samples", "20")
    assert (code, err) == (0, ""), out
    assert "local-vs-global" in out and "FAILED" not in out


def test_three_orbits_are_maximal_at_all_seven_points(capsys):
    """Orbits of degrees 3, 2 and 1 in one operator: every certificate and
    every local-vs-global check passes at each of the seven points."""
    code, out, err = run_cli(
        capsys, "verify", "--operator",
        "x*(x^2-2)*(x^3-2) + S + (x^2-2)*(x^3-2)*S^2", "--right-bound", "Z=2",
        "--right-bound", "x^2-2=1", "--right-bound", "x^3-2=1", "--samples", "20")
    assert (code, err) == (0, ""), out
    points = ["root(-2+x^3)", "root(-2+x^3)+1", "root(-2+x^2)", "root(-2+x^2)+1",
              "0", "1", "2"]
    assert out.splitlines() == (
        [f"certificate at {p}: ok (20 samples, seed 0)" for p in points]
        + [f"module check (local-vs-global) at {p}: ok" for p in points]
        + ["verification passed"])


# -- canonical printing ---------------------------------------------------------------


def test_operator_print_parse_round_trip():
    operator = parse_operator(CUBIC).normalized()
    assert parse_operator(operator_str(operator)) == operator


def test_element_print_parse_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "global-basis", "--operator", CUBIC, "--right-bound", "Z=0",
    )
    assert code == 0
    for line in out.splitlines():
        if not line.startswith("B_"):
            continue
        text = line.split(" = ", 1)[1]
        reparsed = parse_element(text, 3)
        assert element_str(reparsed.coords) == text


def test_json_output_is_stable(capsys):
    args = ("global-basis", "--operator", CUBIC, "--right-bound", "Z=0",
            "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_algebraic_right_bound_key_is_normalized(capsys):
    code, out, _ = run_cli(
        capsys, "global-basis", "--operator", "x^2 - 2 + S^2",
        "--right-bound", "x^2-2=1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verified_points"] == ["root(-2+x^2)", "root(-2+x^2)+1"]


def test_verify_rejects_at_with_a_right_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--operator", CUBIC, "--at", "0",
                  "--right-bound", "Z=-50", "--samples", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --right-bound: not allowed with argument --at" in captured.err


def test_huge_right_bound_is_refused_before_any_work(capsys, monkeypatch):
    import tracemalloc

    from precint import integral

    def no_local_pass(*args, **kwargs):
        raise AssertionError("a point was processed")

    monkeypatch.setattr(integral, "local_integral_basis", no_local_pass)
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            capsys, "global-basis", "--operator", CUBIC,
            "--right-bound", f"Z={10 ** 15}",
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err == (f"error: orbit Z: the worklist from -2 to {10 ** 15} has "
                   f"{10 ** 15 + 3} offsets, more than the limit of 100\n")
    assert peak < 20 * 2 ** 20


@pytest.mark.parametrize("operator, bound", [
    (CUBIC, "Z=4"),
    ("(x^2-2)*(x^2-2*x-1) + x*S + (x^2-2*x-1)*S^2", "x^2-2=3"),
])
def test_precision_retries_leave_the_basis_unchanged(capsys, monkeypatch,
                                                     operator, bound):
    """Starting from one term per series, reads that are zero to working
    precision are redone at double precision; the basis is the same."""
    from precint import ore

    argv = ("global-basis", "--operator", operator, "--right-bound", bound,
            "--format", "json")
    code, reference, _ = run_cli(capsys, *argv)
    assert code == 0
    doublings = []
    real = ore.SolutionBasis.double_precision

    def counted(self):
        doublings.append(self.precision)
        real(self)

    monkeypatch.setattr(ore, "START_PRECISION", 1)
    monkeypatch.setattr(ore.SolutionBasis, "double_precision", counted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0, reference, "")
    assert doublings and doublings[0] == 1


@pytest.mark.parametrize("first, second, message", [
    ("Z=0", "Z=4", "orbit Z has two right bounds, Z=0 and Z=4"),
    ("Z=0", "x-1=4", "orbit Z has two right bounds, Z=0 and x-1=4"),
    ("x^2-2=1", "root(x^2-2)+5=3",
     "orbit -2+x^2 has two right bounds, -2+x^2=1 and root(x^2-2)+5=3"),
])
@pytest.mark.parametrize("command", ["global-basis", "verify"])
def test_repeated_right_bound_is_refused(capsys, command, first, second,
                                         message):
    code, out, err = run_cli(capsys, command, "--operator", CUBIC,
                             "--right-bound", first, "--right-bound", second)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, position, anchor", [
    (("val", "--element", "S", "--at", "200"), 201, -2),
    (("val", "--element", "S", "--at", "-300"), -299, -2),
    (("local-basis", "--at", "200"), 200, -2),
    (("verify", "--at", "200", "--samples", "2"), 200, -2),
    (("solutions", "--orbit", "0", "--from", "0", "--to", "2",
      "--anchor", "-100000"), 0, -100000),
])
def test_far_point_is_refused_at_once(capsys, monkeypatch, argv, position,
                                      anchor):
    """A read more than MAX_TABLE_REACH positions outside the identity
    window ends with exit code 2 before the table grows toward it."""
    from precint import ore

    steps = []
    real = ore.SolutionBasis._step

    def counted(self, p):
        steps.append(p)
        return real(self, p)

    monkeypatch.setattr(ore.SolutionBasis, "_step", counted)
    code, out, err = run_cli(capsys, argv[0], "--operator", CUBIC, *argv[1:])
    assert code == 2
    assert out == ""
    assert err == (f"error: position {position} lies more than 100 offsets "
                   f"outside the identity window {anchor}..{anchor + 2} of the "
                   f"solution table anchored at {anchor}\n")
    assert len(steps) < 100


D13 = "(x^13-3) + x*S + (x^13-3)*S^2"


@pytest.mark.parametrize("argv", [
    ("global-basis", "--right-bound", "x^13-3=3"),
    ("verify", "--right-bound", "x^13-3=3", "--samples", "2"),
    ("verify", "--at", "root(x^13-3)", "--samples", "2"),
    ("local-basis", "--at", "root(x^13-3)+1"),
    ("val", "--element", "S", "--at", "root(x^13-3)"),
    ("solutions", "--orbit", "root(x^13-3)", "--from", "0", "--to", "2"),
])
def test_point_over_the_degree_limit_is_refused_at_once(capsys, monkeypatch, argv):
    """A point or detected orbit of degree 13, over MAX_FIELD_DEGREE, ends
    every subcommand with exit code 2 and an error naming the degree and
    the limit, in under a second and before any table is built."""
    import time

    from precint import fields, ore

    def no_table(*args, **kwargs):
        raise AssertionError("a solution table was built")

    monkeypatch.setattr(ore.SolutionBasis, "__init__", no_table)
    assert fields.MAX_FIELD_DEGREE == 12
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--operator", D13, *argv[1:])
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == ("error: a root of -3 + x^13 has degree 13, more than the "
                   "limit of 12 on the degree of a point\n")


@pytest.mark.parametrize("name, degree, shown", [
    ("x^100-x-1", 100, "-1 - x + x^100"),
    ("x^97-x^50+3", 97, "3 - x^50 + x^97"),
    ("(x^13-3)*(x-1)", 14, "3 - 3*x - x^13 + x^14"),
    ("x^100-2", 100, "a root of -2 + x^100"),
])
@pytest.mark.parametrize("option", ["--right-bound", "--at", "--orbit"])
def test_a_long_name_is_refused_by_its_degree_before_factoring(
        capsys, monkeypatch, name, degree, shown, option):
    """A named polynomial above MAX_FIELD_DEGREE is refused by its degree
    alone: exit code 2 in well under 0.05 s, with no factoring.  The text
    names the degree of a root only where Eisenstein's criterion proves the
    polynomial irreducible (x^100-2 at 2); a reducible name such as
    (x^13-3)*(x-1), whose roots have degrees 13 and 1, gets the degree of
    the polynomial."""
    import time

    from precint import exprs

    def no_factoring(poly):
        raise AssertionError("a name above the degree limit was factored")

    monkeypatch.setattr(exprs, "is_irreducible", no_factoring)
    argv = {
        "--right-bound": ("global-basis", "--right-bound", f"{name}=1"),
        "--at": ("local-basis", "--at", f"root({name})+1"),
        "--orbit": ("solutions", "--orbit", name, "--from", "0", "--to", "1"),
    }[option]
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], "--operator", "x + S", *argv[1:])
    assert time.perf_counter() - start < 0.05
    assert (code, out) == (2, "")
    assert err == (f"error: {shown} has degree {degree}, more than "
                   "the limit of 12 on the degree of a point\n")


def test_points_of_degree_twelve_are_accepted():
    """Degree 12, the limit, passes every entry point of the check; a run
    there takes too long for this suite."""
    from precint import AlgebraicPoint, Poly, parse_point
    from precint.valuation import detect_orbits

    m = Poly([-3] + [0] * 11 + [1])
    assert AlgebraicPoint(m, 2).degree == 12
    assert parse_point("root(x^12-3)+1") == AlgebraicPoint(m, 1)
    operator = parse_operator("(x^12-3) + x*S + (x^12-3)*S^2")
    assert [o.degree for o in detect_orbits(operator)] == [12]


def test_worklist_at_its_limit_reads_within_the_table_reach(capsys):
    """x*(x-99) + S has its worklist 0..99 at the limit of 100 offsets, and
    its growth is read at 100, MAX_TABLE_REACH right of the window 0..0."""
    argv = ("global-basis", "--operator", "x*(x-99) + S", "--format", "json")
    code, out, err = run_cli(capsys, *argv, "--right-bound", "Z=99")
    assert (code, err) == (0, "")
    assert json.loads(out)["verified_points"] == [str(n) for n in range(100)]
    code, out, err = run_cli(capsys, *argv, "--right-bound", "Z=100")
    assert code == 2
    assert "more than the limit of 100" in err


@pytest.mark.parametrize("operator, exponent, degree, order", [
    ("x^101 + S", 101, 1, 0),
    ("x^99999999+S", 99999999, 1, 0),
    ("(x^2+1)^51 + S", 51, 2, 0),
    ("(x^2*S)^51 + 1", 51, 2, 1),
    ("1 + S^101", 101, 0, 1),
    ("2^101 + S", 101, 0, 0),
])
def test_oversized_power_is_refused_before_it_is_built(capsys, monkeypatch,
                                                       operator, exponent,
                                                       degree, order):
    from precint.ore import OreOperator

    built = []
    real = OreOperator.__pow__

    def counted(self, n):
        built.append(n)
        return real(self, n)

    monkeypatch.setattr(OreOperator, "__pow__", counted)
    code, out, err = run_cli(capsys, "val", "--operator", operator,
                             "--element", "1", "--at", "0")
    assert code == 2
    assert out == ""
    assert (f"exponent {exponent} of a base of degree {degree} in x and "
            f"order {order} in S exceeds the limit of 100") in err
    assert "Traceback" not in err
    assert exponent not in built


def test_powers_up_to_the_limit_are_built():
    assert parse_operator("x^100 + S").coefficient(0).num.degree == 100
    assert parse_operator("(x^2+1)^50 + S").coefficient(0).num.degree == 100
    assert parse_operator("1 + S^100").order == 100


def test_integer_literal_past_the_digit_limit_is_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "val", "--operator", "1" + "9" * 5000 + " + S",
                             "--element", "1", "--at", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: integer literal is too long (at position 0")


def test_coefficients_past_the_digit_limit_print_in_full():
    """Far right bounds give coefficients longer than the interpreter's limit
    on str(int); the printers write them out in full."""
    import sys
    from fractions import Fraction

    from precint import Poly
    from precint.exprs import poly_str

    coeffs = [Fraction(10 ** 5000 + 7, 3 ** 7000), Fraction(-(2 ** 30000) + 1),
              Fraction(10 ** 4300), Fraction(-5, 2 ** 14300 + 1)]
    printed = poly_str(Poly(coeffs), "x")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = (f"{coeffs[0].numerator}/{coeffs[0].denominator} - "
                    f"{-coeffs[1].numerator}*x + {coeffs[2].numerator}*x^2 - "
                    f"5/{coeffs[3].denominator}*x^3")
    finally:
        sys.set_int_max_str_digits(limit)
    assert printed == expected


# -- the modulus is normalized once -------------------------------------------


@pytest.mark.parametrize("argv", [
    ["global-basis", "--operator", CUBIC, "--right-bound", "Z=0"],
    ["verify", "--operator", CUBIC, "--right-bound", "Z=0", "--samples", "5"],
])
def test_the_cli_normalizes_the_operator_once(capsys, monkeypatch, argv):
    """The CLI normalizes the parsed operator; the library computes with the
    modulus as passed and never normalizes it again."""
    from precint import OreOperator

    calls = []
    normalized = OreOperator.normalized

    def counting(self):
        calls.append(self)
        return normalized(self)

    monkeypatch.setattr(OreOperator, "normalized", counting)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


_SUBCOMMAND_ARGS = {
    "solutions": ["--orbit", "0", "--from", "0", "--to", "1"],
    "val": ["--element", "1", "--at", "0"],
    "local-basis": ["--at", "0"],
    "global-basis": [],
    "verify": [],
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_ARGS))
@pytest.mark.parametrize("operator", ["x*S", "S", "x+1"])
def test_every_subcommand_refuses_an_invalid_modulus(capsys, command, operator):
    """A zero trailing coefficient or an order below 1 is refused by each
    subcommand with exit code 2 and a message."""
    code, out, err = run_cli(capsys, command, "--operator", operator,
                             *_SUBCOMMAND_ARGS[command])
    assert code == 2
    assert out == ""
    assert err == ("error: operator must have order >= 1 and nonzero "
                   "trailing coefficient\n")
