"""Relations that follow from the definition of the value and need no oracle.

The oracles of `verify` recompute a value from the same deformed recurrence
as the main path, so a mistake in how positions, anchors, orbit keys or
points are set up would be shared by both.  These relations compare two
runs of the main path instead:

- shift covariance: the deformed recurrence of L(x + c) at z - c is that of
  L at z, so the global basis of L(x + c) with right bound R - c is the
  basis of L with bound R, each coordinate with x -> x + c;
- the point's presentation: two names of the same conjugate class give the
  same local basis, byte for byte.
"""

from __future__ import annotations

import pytest

from precint import BasisMatrix, OreOperator, ZSpec, cli, global_integral_basis
from precint.exprs import parse_orbit_key
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
    key = parse_orbit_key(key)
    basis = global_integral_basis(modulus, ZSpec({key: bound})).basis
    assert basis.rows != BasisMatrix.standard(modulus.order).rows
    for c in (-3, -1, 1, 2, 5):
        shifted = OreOperator([f.shift(c) for f in modulus.coeffs]).normalized()
        moved = global_integral_basis(shifted, ZSpec({key: bound - c})).basis
        expected = [[f.shift(c) for f in row.coords] for row in basis.rows]
        assert [list(row.coords) for row in moved.rows] == expected, c


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
