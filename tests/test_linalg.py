"""The elimination kernel against sympy's exact linear algebra over QQ."""

from __future__ import annotations

import functools
from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from precint import INFINITY, _linalg

entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def matrices(draw, square: bool):
    """Matrices of size 1-5, half of them a product through a random inner
    dimension, so that singular and rank-deficient ones are common."""
    n = draw(st.integers(1, 5))
    m = n if square else draw(st.integers(1, 5))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(m)] for _ in range(n)]
    k = draw(st.integers(0, min(n, m)))
    left = [[draw(entries) for _ in range(k)] for _ in range(n)]
    right = [[draw(entries) for _ in range(m)] for _ in range(k)]
    return [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
             for j in range(m)] for i in range(n)]


def _sympy(matrix) -> sympy.Matrix:
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in row]
                         for row in matrix])


def _fraction(r) -> Fraction:
    r = sympy.Rational(r)
    return Fraction(int(r.p), int(r.q))


def _nu(p: int, value: Fraction):
    """The p-adic valuation of a Fraction, INFINITY at 0."""
    if not value:
        return INFINITY
    v, num, den = 0, value.numerator, value.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrices(square=True))
def test_determinant_matches_sympy(matrix):
    det = _fraction(_sympy(matrix).det())
    for p in (2, 3):
        nu = functools.partial(_nu, p)
        assert _linalg.determinant(matrix, nu) == nu(det)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(matrices(square=False), st.data())
def test_solve_with_free_zero_matches_sympy(matrix, data):
    rhs = data.draw(st.lists(entries, min_size=len(matrix), max_size=len(matrix)))
    reference = _sympy(matrix)
    augmented = reference.row_join(_sympy([[b] for b in rhs]))
    solution = _linalg.solve_with_free_zero(matrix, rhs)
    if reference.rank() < augmented.rank():
        assert solution is None
        return
    assert solution is not None
    assert len(solution) == len(matrix[0])
    for row, b in zip(matrix, rhs):
        assert sum((a * y for a, y in zip(row, solution)), Fraction(0)) == b
    _, pivots = reference.rref()
    for col, y in enumerate(solution):
        if col not in pivots:
            assert y == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrices(square=True).filter(lambda m: len(m) > 1))
def test_cofactors_expand_the_determinant_along_any_row(matrix):
    """sum_j a_dj * C_j is the determinant for every row d, with the
    cofactors built from the other rows alone, singular matrices included."""
    det = _fraction(_sympy(matrix).det())
    for d, row in enumerate(matrix):
        fixed = matrix[:d] + matrix[d + 1:]
        cofactors = _linalg.cofactors(fixed, d)
        assert len(cofactors) == len(matrix)
        assert sum((a * c for a, c in zip(row, cofactors)), Fraction(0)) == det
