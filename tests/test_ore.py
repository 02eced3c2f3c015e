"""Skew-polynomial arithmetic, quotient reduction, and anchored solutions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precint import (
    AlgebraicPoint,
    OrbitAnalysis,
    OreOperator,
    Poly,
    QuotientElement,
    RationalFunction,
    anchored_basis,
    apply_element_all,
    default_anchor,
    eval_shifted,
    ore_multiply,
    parse_element,
    parse_operator,
    reduce_mod,
    solution_value,
    val_at,
)
from conftest import CUBIC, CUBIC_SHIFTED, coeff, el, op, pt, random_rf


def qrf(text: str) -> RationalFunction:
    """A rational function in q, written with x as the placeholder variable."""
    return coeff(text)


# -- skew multiplication -----------------------------------------------------


def test_shift_moves_past_x():
    assert parse_operator("S*x") == parse_operator("(x+1)*S")


def test_left_coefficient_stays():
    assert parse_operator("x*S") == OreOperator((0, RationalFunction.x()))


def test_square_of_shift_moves_twice():
    assert parse_operator("S^2*x") == parse_operator("(x+2)*S^2")


@pytest.mark.parametrize("seed", [51, 52])
def test_ore_multiply_associative_and_distributive(seed):
    rng = random.Random(seed)

    def random_operator():
        return OreOperator(tuple(random_rf(rng, max_degree=1, height=3)
                                 for _ in range(rng.randint(1, 4))))

    for _ in range(8):
        a, b, c = random_operator(), random_operator(), random_operator()
        assert ore_multiply(ore_multiply(a, b), c) == ore_multiply(a, ore_multiply(b, c))
        assert ore_multiply(a, b + c) == ore_multiply(a, b) + ore_multiply(a, c)
        assert ore_multiply(a + b, c) == ore_multiply(a, c) + ore_multiply(b, c)


def test_normalized_clears_denominators_and_content():
    operator = parse_operator("1/2 + (x/(x+1))*S").normalized()
    coeffs = operator.polynomial_coeffs()
    assert [list(c.coeffs) for c in coeffs] == [[Fraction(1), Fraction(1)],
                                                [Fraction(0), Fraction(2)]]


# -- reduction to the quotient -----------------------------------------------


def test_modulus_reduces_to_zero(cubic):
    assert reduce_mod(cubic, cubic).is_zero


def test_low_order_elements_are_untouched(cubic):
    red = reduce_mod(parse_operator("S"), cubic)
    assert red == QuotientElement((0, 1, 0))


def test_reduce_top_power(cubic):
    red = reduce_mod(parse_operator("S^3"), cubic)
    expected = QuotientElement((
        coeff("-(x+2)"),
        coeff("0"),
        coeff("-x/(x+2)"),
    ))
    assert red == expected


@pytest.mark.parametrize("seed", [53, 54])
def test_reduction_kills_left_multiples(seed, cubic):
    rng = random.Random(seed)

    def random_operator(max_order):
        return OreOperator(tuple(random_rf(rng, max_degree=1, height=2)
                                 for _ in range(rng.randint(1, max_order + 1))))

    for _ in range(6):
        a = random_operator(2)
        rem = random_operator(4)
        assert reduce_mod(a * cubic + rem, cubic) == reduce_mod(rem, cubic)


# -- anchored solutions ------------------------------------------------------


def test_default_anchor_is_leftmost_coefficient_root(cubic, orbit_z):
    assert default_anchor(cubic, orbit_z) == -2
    basis = anchored_basis(cubic, orbit_z)
    assert basis.anchor == -2
    for i in range(1, 4):
        for j in range(1, 4):
            expected = RationalFunction.one() if i == j else RationalFunction.zero()
            assert basis.value(j, -2 + i - 1) == expected


def test_anchor_without_singularities_defaults_to_zero(orbit_z):
    basis = anchored_basis(op("S^2 - 1"), orbit_z)
    assert basis.anchor == 0
    assert basis.value(1, 0) == RationalFunction.one()
    assert basis.value(2, 1) == RationalFunction.one()


def test_anchor_on_rootless_algebraic_orbit():
    orbit = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    basis = anchored_basis(op("S^2 - 1"), orbit)
    assert basis.anchor == 0


def test_solution_table_values(cubic, orbit_z):
    basis = anchored_basis(cubic, orbit_z)
    assert solution_value(basis, 1, 1) == qrf("-x")
    assert solution_value(basis, 1, 2) == qrf("x*(x-1)/(x+1)")
    assert solution_value(basis, 2, 2) == qrf("-x-1")
    assert solution_value(basis, 3, 1) == qrf("(-x+2)/x")
    assert solution_value(basis, 3, 2) == qrf("(x^2-3*x+2)/(x*(x+1))")


def test_every_cached_window_satisfies_the_recurrence(cubic, orbit_z):
    basis = anchored_basis(cubic, orbit_z)
    for j in (1, 2, 3):
        basis.value(j, 6)
        basis.value(j, -6)
    for j in (1, 2, 3):
        for w in range(-6, 4):
            assert basis.recurrence_residual(j, w).is_zero


def test_solution_values_on_algebraic_orbit():
    operator = op("x^2 - 2 + S^2")
    orbit = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    basis = anchored_basis(operator, orbit)
    assert basis.anchor == 0
    value = basis.value(1, 2)
    # b_1(2) = -((rho+q)^2 - 2) = -q^2 - 2*rho*q with rho = root(x^2-2)
    t = orbit.number_field().generator
    expected = RationalFunction(Poly([0, -2 * t, -1]))
    assert value == expected


# -- the action on solutions -------------------------------------------------


def test_apply_element_examples(cubic, orbit_z):
    basis = anchored_basis(cubic, orbit_z)
    s = el("S", 3)
    assert apply_element_all(s, basis, 0)[3 - 1] == qrf("(-x+2)/x")
    one = el("1", 3)
    for j in (1, 2, 3):
        for n in (-2, 0, 2):
            assert apply_element_all(one, basis, n)[j - 1] == basis.value(j, n)
    scaled = el("(1/x)*S", 3)
    assert apply_element_all(scaled, basis, 0)[1 - 1] == qrf("-1")


def _apply_operator_directly(operator: OreOperator, basis, j: int, n: int):
    """Independent oracle: the action of an arbitrary-order operator."""
    z = basis.point_value(n)
    acc = RationalFunction.zero()
    for i, c in enumerate(operator.coeffs):
        if c.is_zero:
            continue
        acc = acc + eval_shifted(c, z) * basis.value(j, n + i)
    return acc


@pytest.mark.parametrize("seed", [55, 56])
def test_action_factors_through_the_quotient(seed, cubic, orbit_z):
    rng = random.Random(seed)
    basis = anchored_basis(cubic, orbit_z)
    for _ in range(5):
        raw = OreOperator(tuple(random_rf(rng, max_degree=1, height=2)
                                for _ in range(rng.randint(1, 7))))
        reduced = reduce_mod(raw, cubic)
        for j in (1, 2, 3):
            for n in (-1, 0, 1):
                direct = _apply_operator_directly(raw, basis, j, n)
                assert apply_element_all(reduced, basis, n)[j - 1] == direct


@pytest.mark.parametrize("operator, point, elements", [
    (CUBIC, "0", ("1", "S", "(x-2)/x^2 + (1/x)*S", "-2/x + S^2")),
    ("x^2 - 2 + S^2", "root(x^2-2)", ("1", "S", "x + (1/(x-1))*S")),
])
def test_memoised_action_matches_a_fresh_table(operator, point, elements):
    """Repeated (row, offset) lookups return the memoised tuple, and it
    equals the action computed directly on a freshly anchored table."""
    modulus = op(operator)
    orbit = pt(point).orbit()
    basis = anchored_basis(modulus, orbit)
    rows = [el(text, modulus.order) for text in elements]
    for _ in range(2):
        for row in rows:
            for n in range(-2, 3):
                values = apply_element_all(row, basis, n)
                assert apply_element_all(row, basis, n) is values
                fresh = anchored_basis(modulus, orbit)
                direct = tuple(
                    _apply_operator_directly(OreOperator(row.coords), fresh, j, n)
                    for j in range(1, modulus.order + 1))
                assert values == direct


def test_two_analyses_share_no_memo(cubic, orbit_z):
    first = OrbitAnalysis.analyze(cubic, orbit_z)
    second = OrbitAnalysis.analyze(cubic, orbit_z)
    row = el("S", 3)
    assert val_at(row, pt("0"), first) == -1
    assert (row, 0) in first.basis._actions
    assert (row, 0) not in second.basis._actions
    assert val_at(row, pt("0"), second) == -1
    assert (first.basis._actions[(row, 0)]
            is not second.basis._actions[(row, 0)])


def test_shifted_variant_reproduces_table_one_position_over(orbit_z):
    """The variant with coefficients shifted one step right in x generates
    the same solution table, reindexed by exactly one position."""
    cubic = op(CUBIC)
    variant = op(CUBIC_SHIFTED)
    base = anchored_basis(cubic, orbit_z)
    other = anchored_basis(variant, orbit_z)
    assert other.anchor == -1
    for j in (1, 2, 3):
        for n in range(-2, 4):
            assert other.value(j, n + 1) == base.value(j, n)


def test_max_degree_diagnostic(cubic, orbit_z):
    basis = anchored_basis(cubic, orbit_z)
    basis.value(1, 4)
    assert basis.max_degree >= 2
