"""Robustness of the command line: every subcommand, in both formats, ends
with exit 0, 2 (usage) or 3 (missing right bound), an `error:` line on a
non-zero exit, and never a traceback, within a second.  Three derandomized
hypothesis runs with fixed budgets of examples, on small inputs so that they
stay cheap: points root(p) + k for monic, non-monic, non-integral and
reducible p; token soup in every expression argument; and seeded random
operators with right bounds for their own orbits, each orbit name also
drawn as a point or a polynomial."""

from __future__ import annotations

import contextlib
import io
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from precint import RandomOperatorSpec, cli, operator_str, random_operators
from precint.valuation import detect_orbits

COMMANDS = ["solutions", "val", "local-basis", "global-basis", "verify"]

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
    command = draw(st.sampled_from(COMMANDS))
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


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seconds = time.perf_counter() - start
    err = err.getvalue()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code:
        assert any(line.startswith("error: ") for line in err.splitlines()), (argv, err)
    else:
        assert out.getvalue()
    assert seconds < 1, (argv, seconds)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(calls())
def test_algebraic_points_end_in_a_stated_exit_code(argv):
    _check(argv)


# pieces of the expression grammar, and a few characters outside it
TOKENS = ["x", "S", "q", "t", "+", "-", "*", "/", "^", "(", ")", "0", "1", "2",
          "3", "12", "1/2", " ", "root(", "root", ",", "=", ".", "x^2-2", "S^2",
          "(x+2)", "Z", "e", "_", "\u00b2"]


def soup():
    return st.lists(st.sampled_from(TOKENS), max_size=10).map("".join)


def _operator_arguments(draw, command, operator, keys):
    """The arguments after --operator: --format, then the command's own,
    with every expression drawn from a few valid points or from token soup,
    and every orbit name (--orbit, the keys of --right-bound) also from
    `keys` (the operator's orbit keys) and from polynomials."""
    points = ["0", "1", "-2", "root(x^2-2)+1"]
    point = st.one_of(st.sampled_from(points), soup())
    orbit = st.one_of(st.sampled_from(keys),
                      st.sampled_from(points + ["x^2-2", "x+7"]), soup())
    argv = [command, f"--operator={operator}",
            "--format", draw(st.sampled_from(["text", "json"]))]
    if command == "solutions":
        start = draw(st.integers(-3, 3))
        argv += [f"--orbit={draw(orbit)}", "--from", str(start),
                 "--to", str(start + draw(st.integers(-1, 3)))]
    elif command == "val":
        element = st.one_of(st.sampled_from(["1", "S", "x*S", "1/x"]), soup())
        argv += [f"--element={draw(element)}", f"--at={draw(point)}"]
    elif command == "local-basis":
        argv += [f"--at={draw(point)}"]
    else:
        if command == "verify":
            argv += ["--samples", str(draw(st.integers(1, 4)))]
        if command == "verify" and draw(st.booleans()):
            argv += [f"--at={draw(point)}"]
        else:
            for key in draw(st.lists(orbit, max_size=2)):
                argv += [f"--right-bound={key}={draw(st.integers(-2, 4))}"]
    return argv


@st.composite
def soup_calls(draw):
    operator = st.sampled_from(["x + S", "(x+2)^2 + x*S^2 + (x+2)*S^3"])
    return _operator_arguments(draw, draw(st.sampled_from(COMMANDS)),
                               draw(st.one_of(soup(), operator)), ["Z"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(soup_calls())
def test_token_soup_ends_in_a_stated_exit_code(argv):
    _check(argv)


@st.composite
def random_operator_calls(draw):
    spec = RandomOperatorSpec(order=draw(st.integers(1, 4)),
                              coeff_degree=draw(st.integers(0, 2)),
                              height=draw(st.integers(1, 3)),
                              seed=draw(st.integers(0, 10 ** 6)))
    operator = random_operators(spec, 1)[0].normalized()
    keys = [orbit.orbit_key() for orbit in detect_orbits(operator)] or ["Z"]
    return _operator_arguments(draw, draw(st.sampled_from(COMMANDS)),
                               operator_str(operator), keys)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_operator_calls())
def test_random_operators_end_in_a_stated_exit_code(argv):
    _check(argv)
