"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precint import (
    AlgebraicPoint,
    OreOperator,
    Poly,
    QuotientElement,
    RandomOperatorSpec,
    RationalFunction,
    parse_element,
    parse_operator,
    parse_point,
    q_series,
    random_operators,
)

# Order-3 operator whose integer orbit carries the full story: a double
# root of the trailing coefficient at -2, a leading-coefficient root making
# 1 a rightward drop position, and solutions of growth (1, 0, -1).
CUBIC = "(x+2)^2 + x*S^2 + (x+2)*S^3"

# The same operator with every coefficient shifted one step right in x;
# its solution table is the CUBIC table reindexed by one position.
CUBIC_SHIFTED = "(x+1)^2 + (x-1)*S^2 + (x+1)*S^3"


@pytest.fixture
def cubic() -> OreOperator:
    return parse_operator(CUBIC).normalized()


@pytest.fixture
def orbit_z() -> AlgebraicPoint:
    return AlgebraicPoint.from_rational(0)


def op(text: str) -> OreOperator:
    return parse_operator(text).normalized()


def el(text: str, order: int) -> QuotientElement:
    return parse_element(text, order)


def pt(text: str) -> AlgebraicPoint:
    return parse_point(text)


def coeff(text: str) -> RationalFunction:
    operator = parse_operator(text)
    if operator.order > 0:
        raise ValueError("expected a shift-free expression")
    return operator.coeffs[0] if operator.coeffs else RationalFunction.zero()


def planted_operator(order: int, coeff_degree: int, seed: int) -> OreOperator:
    """A seeded random operator with singular points planted on Z: the
    trailing coefficient gains the root -1, the leading one the root 1."""
    spec = RandomOperatorSpec(order=order, coeff_degree=coeff_degree,
                              height=2, seed=seed)
    coeffs = list(random_operators(spec, 1)[0].coeffs)
    coeffs[0] = coeffs[0] * RationalFunction(Poly([1, 1]))
    coeffs[-1] = coeffs[-1] * RationalFunction(Poly([-1, 1]))
    return OreOperator(tuple(coeffs)).normalized()


def random_poly(rng: random.Random, max_degree: int = 2, height: int = 4,
                nonzero: bool = False) -> Poly:
    while True:
        p = Poly([Fraction(rng.randint(-height, height))
                  for _ in range(rng.randint(0, max_degree) + 1)])
        if not nonzero or not p.is_zero:
            return p


def random_rf(rng: random.Random, max_degree: int = 2, height: int = 4,
              nonzero: bool = False) -> RationalFunction:
    num = random_poly(rng, max_degree, height, nonzero=nonzero)
    den = random_poly(rng, max_degree, height, nonzero=True)
    return RationalFunction(num, den)


def series_equals(compute, exact: RationalFunction, basis) -> bool:
    """Whether the q-series `compute()` returns equals the exact value.

    The precision of `basis` is doubled until the difference between the
    series and the expansion of `exact` is either exactly zero, which the
    series type only concludes past the degree bound of the difference, or
    has a known leading term; so a True proves equality.
    """
    while True:
        diff = compute() - q_series(exact, basis.precision)
        if diff.is_zero:
            return True
        if diff.known:
            return False
        basis.double_precision()
