"""Relations that follow from the definition of the value and need no oracle.

The oracles of `verify` recompute a value from the same deformed recurrence
as the main path, so a mistake in how positions, anchors, orbit keys or
points are set up would be shared by both.  These relations compare two
runs of the main path instead:

- shift covariance: the deformed recurrence of L(x + c) at z - c is that of
  L at z, so the global basis of L(x + c) with right bound R - c is the
  basis of L with bound R, each coordinate with x -> x + c;
- the point's presentation: two names of the same conjugate class give the
  same local basis, byte for byte;
- the orbit's name: any name of each orbit in `--right-bound` gives the
  same global basis, byte for byte;
- the constant gauge: if a(n) solves L then c^n a(n) solves
  L_c = sum l_i c^(-i) S^i, so the basis of L_c generates, at every point,
  the module of the basis of L with coordinate i scaled by c^(-i).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from precint import (
    BasisMatrix,
    OrbitAnalysis,
    OreOperator,
    QuotientElement,
    RandomOperatorSpec,
    cli,
    global_integral_basis,
    module_equal_at,
    operator_str,
    poly_str,
    random_operators,
)
from precint.exprs import parse_orbit
from precint.valuation import detect_orbits
from conftest import CUBIC, op

ALG_QUARTIC = "(x^2-2)*(x^2-2*x-1) + x*S + (x^2-2*x-1)*S^2"
CUBIC_FIELD = "(x^3-2)*(x^3-3*x^2+3*x-3) + x*S + (x^3-3*x^2+3*x-3)*S^2"
SQRT2 = "x^2 - 2 + S^2"

SHIFT_CASES = [
    (CUBIC, "Z", 4),
    (ALG_QUARTIC, "x^2-2", 3),
    (CUBIC_FIELD, "x^3-2", 2),
    (SQRT2, "x^2-2", 1),
]


@pytest.mark.parametrize("text, key, bound", SHIFT_CASES)
def test_global_basis_is_covariant_under_an_integer_shift(text, key, bound):
    """B(L(x + c), R - c) = B(L, R)(x + c) row by row, for shifts of both
    signs, on an integer orbit and on orbits of degree 2 and 3."""
    modulus = op(text)
    key = parse_orbit(key).orbit_key()
    basis = global_integral_basis(modulus, {key: bound}).basis
    assert basis.rows != BasisMatrix.standard(modulus.order).rows
    for c in (-3, -1, 1, 2, 5):
        shifted = OreOperator([f.shift(c) for f in modulus.coeffs]).normalized()
        moved = global_integral_basis(shifted, {key: bound - c}).basis
        expected = [[f.shift(c) for f in row.coords] for row in basis.rows]
        assert [list(row.coords) for row in moved.rows] == expected, c


def _orbit_names(orbit):
    """Four names of one orbit: its key, the root of its polynomial, the
    root of that polynomial shifted by 3 and moved back, and its point at
    offset 0, a number on a rational orbit."""
    def poly(shift):
        return poly_str(orbit.min_poly.shift(-shift), "x", compact=True)

    return [orbit.orbit_key(), f"root({poly(0)})", f"root({poly(3)})-3", str(orbit)]


def test_global_basis_does_not_depend_on_the_orbit_name(capsys):
    """On the twenty seeded operators of orders 1-4 that the sympy check
    runs, every orbit bounded at its right edge: each way of naming the
    orbits gives the same output, byte for byte."""
    degrees = set()
    for k in range(1, 5):
        spec = RandomOperatorSpec(order=k, coeff_degree=2, height=3, seed=k)
        for operator in random_operators(spec, 5):
            operator = operator.normalized()
            text = operator_str(operator)
            orbits = detect_orbits(operator)
            edges = [OrbitAnalysis.analyze(operator, o).right_edge for o in orbits]
            spellings = {tuple(_orbit_names(o)[i] for o in orbits) for i in range(4)}
            outputs = set()
            for keys in spellings:
                argv = ["global-basis", f"--operator={text}", "--format", "json"]
                argv += [f"--right-bound={key}={edge}" for key, edge in zip(keys, edges)]
                code = cli.main(argv)
                captured = capsys.readouterr()
                assert (code, captured.err) == (0, ""), argv
                outputs.add(captured.out)
            assert len(outputs) == 1, text
            degrees.update(o.degree for o in orbits)
    assert degrees == {1, 2}


@pytest.mark.parametrize("text, first, second", [
    (ALG_QUARTIC, "root(x^2-2)+1", "root(x^2-2*x-1)"),
    (CUBIC_FIELD, "root(x^3-2)+1", "root(x^3-3*x^2+3*x-3)"),
])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_local_basis_does_not_depend_on_the_point_presentation(capsys, text, first,
                                                               second, fmt):
    """root(m(x - 1)) names the conjugates of root(m) + 1."""
    outputs = []
    for point in (first, second):
        code = cli.main(["local-basis", "--operator", text, "--at", point,
                         "--format", fmt])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert "/" in outputs[0]  # a basis with a pole at the point, not the standard one


def _gauged(modulus: OreOperator, c: Fraction) -> OreOperator:
    return OreOperator([f * c ** (-i) for i, f in enumerate(modulus.coeffs)]).normalized()


def _assert_gauge_covariance(modulus, gauged, c, key, bound):
    bounds = {parse_orbit(key).orbit_key(): bound}
    run = global_integral_basis(modulus, bounds)
    moved = global_integral_basis(gauged, bounds)
    mapped = BasisMatrix(tuple(
        QuotientElement(tuple(f * c ** (-i) for i, f in enumerate(row.coords)))
        for row in run.basis.rows))
    points = [entry.analysis.orbit.shifted(n)
              for entry in run.processed for n in entry.points]
    assert points
    for point in points:
        assert module_equal_at(moved.basis, mapped, point), str(point)
    # row by row, the two differ by a nonzero constant
    for row, image in zip(moved.basis.rows, mapped.rows):
        assert [f.is_zero for f in row.coords] == [g.is_zero for g in image.coords]
        ratios = {f / g for f, g in zip(row.coords, image.coords) if not g.is_zero}
        assert len(ratios) == 1 and ratios.pop().num.degree == 0
    return moved.basis, run.basis, points


def test_cubic_basis_is_covariant_under_the_gauge_two():
    """8*(x+2)^2 + 2*x*S^2 + (x+2)*S^3 is 8 times the gauge c = 2 of the
    cubic; at Z=0 its basis is the cubic's with coordinate i scaled by 2^(-i),
    up to a constant per row."""
    c = Fraction(2)
    gauged = op("8*(x+2)^2 + 2*x*S^2 + (x+2)*S^3")
    assert gauged == _gauged(op(CUBIC), c)
    moved, basis, points = _assert_gauge_covariance(op(CUBIC), gauged, c, "Z", 0)
    # the unscaled basis is not a basis of the gauged module
    assert not all(module_equal_at(moved, basis, point) for point in points)


@pytest.mark.parametrize("text, key, bound", SHIFT_CASES)
@pytest.mark.parametrize("c", [Fraction(-3), Fraction(-1, 2), Fraction(3)], ids=str)
def test_global_basis_is_covariant_under_a_constant_gauge(text, key, bound, c):
    """The same relation for gauges of both signs, integral or not, on an
    integer orbit and on orbits of degree 2 and 3."""
    modulus = op(text)
    _assert_gauge_covariance(modulus, _gauged(modulus, c), c, key, bound)
