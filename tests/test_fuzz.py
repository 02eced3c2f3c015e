"""Robustness at algebraic points: every subcommand, in both formats, at
points root(p) + k for monic, non-monic, non-integral and reducible p, ends
with exit 0, 2 (usage) or 3 (missing right bound), an `error:` line on a
non-zero exit, and never a traceback.  A derandomized hypothesis run with a fixed
budget of examples, on small operators so that it stays cheap."""

from __future__ import annotations

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from precint import cli

# monic, non-monic, non-integral and reducible minimal polynomials
POLYS = ["x^2-2", "x^3-2", "2*x^2-1", "x^2+x+1/3", "3*x^3-x+5", "x^2-1", "x^3-x"]

# small operators, each with the keys of the orbits it has
OPERATORS = [
    ("x^2 - 2 + S^2", ["x^2-2"]),
    ("(2*x^2-1) + x*S + (2*x^2-1)*S^2", ["2*x^2-1"]),
    ("(3*x^2+3*x+1) + x*S + S^2", ["x^2+x+1/3"]),
    ("(3*x^3-x+5) + S", ["3*x^3-x+5"]),
    ("x + S", ["Z"]),
]

ELEMENTS = ["1", "S", "x*S", "1/(x-1)*S", "1/(2*x^2-1)"]


@st.composite
def points(draw):
    p = draw(st.sampled_from(POLYS))
    k = draw(st.integers(-3, 3))
    return f"root({p})" + (f"{k:+d}" if k else "")


@st.composite
def calls(draw):
    command = draw(st.sampled_from(["solutions", "val", "local-basis",
                                    "global-basis", "verify"]))
    operator, own_keys = draw(st.sampled_from(OPERATORS))
    argv = [command, "--operator", operator,
            "--format", draw(st.sampled_from(["text", "json"]))]
    point = draw(points())
    if command == "solutions":
        start = draw(st.integers(-3, 3))
        argv += ["--orbit", point, "--from", str(start),
                 "--to", str(start + draw(st.integers(-1, 3)))]
    elif command == "val":
        argv += ["--element", draw(st.sampled_from(ELEMENTS)), "--at", point]
    elif command == "local-basis":
        argv += ["--at", point]
    else:
        if command == "verify":
            argv += ["--samples", str(draw(st.integers(1, 4)))]
        if command == "verify" and draw(st.booleans()):
            argv += ["--at", point]
        else:
            # the operator's own orbits, mostly, and now and then another key
            keys = own_keys if draw(st.integers(0, 3)) else []
            keys = keys + draw(st.lists(st.sampled_from(POLYS + ["Z", point]), max_size=1))
            for key in keys:
                argv += ["--right-bound", f"{key}={draw(st.integers(-2, 3))}"]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(calls())
def test_algebraic_points_end_in_a_stated_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code:
        assert any(line.startswith("error: ") for line in err.splitlines()), (argv, err)
    else:
        assert out.getvalue()
