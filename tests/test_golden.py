"""`global-basis --format json` and failing certificates on a fixed
corpus, byte for byte.

The `global-basis` files in `tests/golden/` hold the stdout of each case as
recorded before the integer kernel of `fields` and `qvalues` replaced
`Fraction` coefficients (`three-orbits-2`: before a combine at a rational
point divided the combination by x - z); the `certificate-*` files hold the
JSON report of a certificate of the standard basis where it is not
integral, as recorded before the oracle's sample loop moved onto that
kernel, and, for `certificate-rational-half` (a point that is a `Fraction`) and
`certificate-half-1` (a minimal polynomial that is not integral), before
the loop read q-orders from the orders of the factors.  A passing report
prints no values, so only failing ones pin the exact q-orders and the
random stream.  A change of representation or of algorithm that moves a
single printed character fails here.  Regenerate a file only for an
intended change of output, with the call in `_argv` or
`_certificate_json`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from precint import BasisMatrix, certificate, cli, parse_operator, parse_point, poly_str
from conftest import CUBIC

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"

SPREAD4 = "(x+3)*(x-1) + x*S + S^2 + (x-4)*S^3"
ORD4 = "(x+2)^2*(x-1) + x*S + (x^2+1)*S^2 + S^3 + (x-3)*S^4"
ALG_QUARTIC = "(x^2-2)*(x^2-2*x-1) + x*S + (x^2-2*x-1)*S^2"
SQRT2 = "x^2 - 2 + S^2"
CUBIC_FIELD = "(x^3-2)*(x^3-3*x^2+3*x-3) + x*S + (x^3-3*x^2+3*x-3)*S^2"
# the minimal polynomial x^2 - 1/2 of its orbit has a non-integral coefficient
HALF = "(2*x^2-1) + x*S + (2*x^2-1)*S^2"
# an orbit 1/2 + Z: the point is a Fraction
RATIONAL_HALF = "(2*x-1)*(x+3) + S + (2*x+5)*S^2"
# three orbits, of degrees 3, 2 and 1
THREE_ORBITS = "x*(x^2-2)*(x^3-2) + S + (x^2-2)*(x^3-2)*S^2"
# orbits of degree 8 and 12, where arithmetic in the field dominates
ALG_D8 = "(x^8-3) + x*S + (x^8-3)*S^2"
ALG_D12 = "(x^12-3) + x*S + (x^12-3)*S^2"

CASES = {
    "cubic-Z0": (CUBIC, "Z=0"),
    "cubic-Z4": (CUBIC, "Z=4"),
    "cubic-Z10": (CUBIC, "Z=10"),
    "spread4-Z7": (SPREAD4, "Z=7"),
    "ord4-Z7": (ORD4, "Z=7"),
    "alg-quartic-3": (ALG_QUARTIC, "x^2-2=3"),
    "sqrt2-1": (SQRT2, "x^2-2=1"),
    "cubic-field-2": (CUBIC_FIELD, "x^3-2=2"),
    "half-1": (HALF, "x^2-1/2=1"),
    "three-orbits-2": (THREE_ORBITS, "Z=2 x^2-2=1 x^3-2=1"),
    "alg-d8-3": (ALG_D8, "x^8-3=3"),
    "alg-d12-3": (ALG_D12, "x^12-3=3"),
}


def _argv(name: str):
    operator, bounds = CASES[name]
    argv = ["global-basis", "--operator", operator]
    for bound in bounds.split():
        argv += ["--right-bound", bound]
    return argv + ["--format", "json"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_global_basis_matches_the_recorded_json(capsys, name):
    code = cli.main(_argv(name))
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{name}.json").read_bytes()


# the standard basis is not integral at these points: (operator, point)
CERTIFICATES = {
    "certificate-cubic-0": (CUBIC, "0"),
    "certificate-sqrt2-1": (SQRT2, "root(x^2-2)+1"),
    "certificate-cubic-field-2": (CUBIC_FIELD, "root(x^3-2)+2"),
    "certificate-ord4-7": (ORD4, "7"),
    "certificate-rational-half": (RATIONAL_HALF, "1/2"),
    "certificate-half-1": (HALF, "root(x^2-1/2)+1"),
}


def _certificate_json(name: str) -> str:
    operator, point = CERTIFICATES[name]
    modulus = parse_operator(operator)
    report = certificate(modulus, BasisMatrix.standard(modulus.order),
                         parse_point(point), samples=300, seed=7)
    assert not report.passed
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_failing_certificate_matches_the_recorded_json(name):
    text = _certificate_json(name)
    assert text.encode() == (GOLDEN / f"{name}.json").read_bytes()


def _run_python(code: str) -> str:
    """Runs code in a fresh interpreter that imports precint from this
    checkout; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# runs CLI calls with stdout and stderr captured and prints one JSON list
# of [exit code, stdout, stderr]
_CLI_CALLS = """
import contextlib, io, json, sys
{prologue}
from precint import cli
results = []
for argv in {calls!r}:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
{epilogue}
print(json.dumps(results))
"""


def test_runtime_needs_no_sympy():
    """precint imports no sympy at any point of a run: with the import
    blocked, global runs over Q and over number fields and a certificate
    still print their recorded output, and a run in a fresh interpreter
    leaves sympy unimported."""
    calls = [_argv("cubic-Z4"), _argv("alg-quartic-3"),
             ["verify", "--operator", SQRT2, "--right-bound", "x^2-2=1",
              "--samples", "20"]]
    results = json.loads(_run_python(_CLI_CALLS.format(
        prologue="sys.modules['sympy'] = None", calls=calls, epilogue="")))
    for name, (code, out, err) in zip(("cubic-Z4", "alg-quartic-3"), results):
        assert (code, err) == (0, "")
        assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
    code, out, err = results[2]
    assert (code, err) == (0, "")
    assert out.endswith("verification passed\n")
    results = json.loads(_run_python(_CLI_CALLS.format(
        prologue="", calls=[_argv("sqrt2-1")],
        epilogue="assert not [m for m in sys.modules if m.split('.')[0] == 'sympy']")))
    assert results == [[0, (GOLDEN / "sqrt2-1.json").read_text(), ""]]


def test_readme_library_example_runs_as_written():
    """The python block under the README's `## Library` heading runs as
    written, each `# -> value` comment in it holds, and its global run
    gives the basis of the `cubic-Z0` case."""
    text = README.read_text()
    text = text[text.index("\n## Library\n"):]
    start = text.index("```python\n") + len("```python\n")
    code = text[start:text.index("```", start)]
    namespace = {}
    exec(code, namespace)
    claims = [line.split("# -> ") for line in code.splitlines() if "# -> " in line]
    assert [expected for _, expected in claims] == ["-1"]
    for expression, expected in claims:
        assert eval(expression, namespace) == int(expected)
    rows = [[{"num": poly_str(c.num, "x", compact=True),
              "den": poly_str(c.den, "x", compact=True)} for c in row.coords]
            for row in namespace["run"].basis.rows]
    assert rows == json.loads((GOLDEN / "cubic-Z0.json").read_text())["basis"]


def test_all_lists_every_public_name_once():
    """`precint.__all__` holds each name once, and exactly the public names
    of the package other than its modules, so each entry resolves and an
    export that goes leaves no stale entry."""
    import types

    import precint

    assert len(set(precint.__all__)) == len(precint.__all__)
    public = {name for name, value in vars(precint).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(precint.__all__)


# every routine of the packed number-field kernel, under each name it is
# called by
PACKED_ROUTINES = [
    ("precint.fields", "NumberField._reduce"),
    ("precint.fields", "NumberField._inverse"),
    ("precint.fields", "NumberField._lift"),
    ("precint.fields", "_field_of"),
    ("precint.fields", "_packed_sum"),
    ("precint.fields", "_packed_coefficient"),
    ("precint.fields", "field_quotient"),
    ("precint.fields", "packed_taylor"),
    ("precint.qvalues", "_field_of"),
    ("precint.qvalues", "field_quotient"),
]


def test_rational_orbits_never_enter_the_number_field_kernel(monkeypatch, capsys):
    """Over Q every product, sum, shift and quotient stays on the int
    branch: with each packed number-field routine replaced by one that
    raises, runs and a certificate on integer orbits print their recorded
    output."""
    import importlib

    def refuse(*args, **kwargs):
        raise AssertionError("a rational run entered the number-field kernel")

    for module, name in PACKED_ROUTINES:
        owner = importlib.import_module(module)
        *path, attr = name.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr))
        monkeypatch.setattr(owner, attr, refuse)
    for name in ("cubic-Z4", "spread4-Z7"):
        code = cli.main(_argv(name))
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert captured.out.encode() == (GOLDEN / f"{name}.json").read_bytes()
    text = _certificate_json("certificate-cubic-0")
    assert text.encode() == (GOLDEN / "certificate-cubic-0.json").read_bytes()
    with pytest.raises(AssertionError, match="number-field kernel"):
        cli.main(_argv("sqrt2-1"))
