"""Command-line behavior: output shapes, exit codes, and round-trips."""

from __future__ import annotations

import json

import pytest

from precint import cli
from precint import (
    BasisMatrix,
    parse_element,
    parse_operator,
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


def test_parse_error_reports_position(capsys):
    code, _, err = run_cli(
        capsys, "val", "--operator", "x + ", "--element", "1", "--at", "0",
    )
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("bound", ["Z=0", "Z=-50"])
@pytest.mark.parametrize("value", ["abc", "-1"])
def test_bad_iteration_cap_is_a_usage_error(capsys, monkeypatch, value, bound):
    monkeypatch.setenv("PRECINT_MAX_ITER", value)
    code, out, err = run_cli(
        capsys, "global-basis", "--operator", CUBIC, "--right-bound", bound,
    )
    assert code == 2
    assert out == ""
    assert "PRECINT_MAX_ITER must be an integer >= 0" in err
    assert "Traceback" not in err


def test_right_bound_left_of_the_orbit_is_noticed(capsys):
    code, out, err = run_cli(
        capsys, "global-basis", "--operator", CUBIC, "--right-bound", "Z=-50",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verified_points"] == []
    assert "Z=-50" in err
    assert "left edge -2 of orbit Z" in err
    code, out, err = run_cli(
        capsys, "verify", "--operator", CUBIC, "--right-bound", "Z=-50",
        "--samples", "1",
    )
    assert code == 0
    assert "verification passed" in out
    assert "left edge -2 of orbit Z" in err


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
