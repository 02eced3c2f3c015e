"""Skew-polynomial arithmetic, quotient reduction, and anchored solutions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precint import (
    INFINITY,
    AlgebraicPoint,
    OrbitAnalysis,
    OreOperator,
    Poly,
    PrecintError,
    QuotientElement,
    RandomOperatorSpec,
    RationalFunction,
    SolutionBasis,
    apply_element_all,
    default_anchor,
    nu_q,
    parse_element,
    parse_operator,
    q_series,
    random_operator,
    reduce_mod,
    val_at,
)
from precint import ore
from conftest import (CUBIC, CUBIC_SHIFTED, coeff, el, op, pt, random_rf,
                      series_equals)


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
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


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
    basis = SolutionBasis(cubic, orbit_z)
    assert basis.anchor == -2
    for i in range(1, 4):
        for j in range(1, 4):
            expected = RationalFunction.one() if i == j else RationalFunction.zero()
            assert basis.value(j, -2 + i - 1) == expected


def test_anchor_without_singularities_defaults_to_zero(orbit_z):
    basis = SolutionBasis(op("S^2 - 1"), orbit_z)
    assert basis.anchor == 0
    assert basis.value(1, 0) == RationalFunction.one()
    assert basis.value(2, 1) == RationalFunction.one()


def test_anchor_on_rootless_algebraic_orbit():
    orbit = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    basis = SolutionBasis(op("S^2 - 1"), orbit)
    assert basis.anchor == 0


def test_solution_table_values(cubic, orbit_z):
    basis = SolutionBasis(cubic, orbit_z)
    assert basis.value(1, 1) == qrf("-x")
    assert basis.value(1, 2) == qrf("x*(x-1)/(x+1)")
    assert basis.value(2, 2) == qrf("-x-1")
    assert basis.value(3, 1) == qrf("(-x+2)/x")
    assert basis.value(3, 2) == qrf("(x^2-3*x+2)/(x*(x+1))")


def test_every_cached_window_satisfies_the_recurrence(cubic, orbit_z):
    basis = SolutionBasis(cubic, orbit_z)
    for j in (1, 2, 3):
        basis.value(j, 6)
        basis.value(j, -6)
    for j in (1, 2, 3):
        for w in range(-6, 4):
            assert basis.recurrence_residual(j, w).is_zero


def test_solution_values_on_algebraic_orbit():
    operator = op("x^2 - 2 + S^2")
    orbit = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    basis = SolutionBasis(operator, orbit)
    assert basis.anchor == 0
    value = basis.value(1, 2)
    # b_1(2) = -((rho+q)^2 - 2) = -q^2 - 2*rho*q with rho = root(x^2-2)
    t = orbit.number_field().generator
    expected = RationalFunction(Poly([0, -2 * t, -1]))
    assert value == expected


# -- the action on solutions -------------------------------------------------


def test_apply_element_examples(cubic, orbit_z):
    basis = SolutionBasis(cubic, orbit_z)
    s = el("S", 3)
    assert series_equals(lambda: apply_element_all(s, basis, 0)[3 - 1],
                         qrf("(-x+2)/x"), basis)
    one = el("1", 3)
    for j in (1, 2, 3):
        for n in (-2, 0, 2):
            assert series_equals(lambda: apply_element_all(one, basis, n)[j - 1],
                                 basis.value(j, n), basis)
    scaled = el("(1/x)*S", 3)
    assert series_equals(lambda: apply_element_all(scaled, basis, 0)[1 - 1],
                         qrf("-1"), basis)


def _apply_operator_directly(operator: OreOperator, basis, j: int, n: int):
    """Independent oracle: the action of an arbitrary-order operator."""
    z = basis.point_value(n)
    acc = RationalFunction.zero()
    for i, c in enumerate(operator.coeffs):
        if c.is_zero:
            continue
        acc = acc + c.shift(z) * basis.value(j, n + i)
    return acc


@pytest.mark.parametrize("seed", [55, 56])
def test_action_factors_through_the_quotient(seed, cubic, orbit_z):
    rng = random.Random(seed)
    basis = SolutionBasis(cubic, orbit_z)
    for _ in range(5):
        raw = OreOperator(tuple(random_rf(rng, max_degree=1, height=2)
                                for _ in range(rng.randint(1, 7))))
        reduced = reduce_mod(raw, cubic)
        for j in (1, 2, 3):
            for n in (-1, 0, 1):
                direct = _apply_operator_directly(raw, basis, j, n)
                assert series_equals(
                    lambda: apply_element_all(reduced, basis, n)[j - 1],
                    direct, basis)


@pytest.mark.parametrize("operator, point, elements", [
    (CUBIC, "0", ("1", "S", "(x-2)/x^2 + (1/x)*S", "-2/x + S^2")),
    ("x^2 - 2 + S^2", "root(x^2-2)", ("1", "S", "x + (1/(x-1))*S")),
])
def test_memoised_action_matches_a_fresh_table(operator, point, elements):
    """Repeated (row, offset) lookups return the memoised tuple, and its
    series equal the action computed exactly on a freshly anchored table."""
    modulus = op(operator)
    orbit = pt(point).orbit()
    basis = SolutionBasis(modulus, orbit)
    rows = [el(text, modulus.order) for text in elements]
    for _ in range(2):
        for row in rows:
            for n in range(-2, 3):
                values = apply_element_all(row, basis, n)
                assert apply_element_all(row, basis, n) is values
                fresh = SolutionBasis(modulus, orbit)
                for j in range(1, modulus.order + 1):
                    direct = _apply_operator_directly(OreOperator(row.coords),
                                                      fresh, j, n)
                    assert series_equals(
                        lambda: apply_element_all(row, basis, n)[j - 1],
                        direct, basis)


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
    base = SolutionBasis(cubic, orbit_z)
    other = SolutionBasis(variant, orbit_z)
    assert other.anchor == -1
    for j in (1, 2, 3):
        for n in range(-2, 4):
            assert other.value(j, n + 1) == base.value(j, n)


def test_max_degree_diagnostic(cubic, orbit_z):
    basis = SolutionBasis(cubic, orbit_z)
    basis.value(1, 4)
    assert basis.max_degree >= 2


# -- the fraction-free table against a plain unrolling in K(q) -----------------


def _unrolled(modulus: OreOperator, root, anchor: int, lo: int, hi: int):
    """Solution values on [lo, hi] by the recurrence in canonical K(q)
    arithmetic, one division per step."""
    ell = modulus.polynomial_coeffs()
    r = modulus.order

    def lev(i, w):
        return RationalFunction(ell[i].shift(root + w))

    table = []
    for j in range(1, r + 1):
        vals = {anchor + i: RationalFunction.one() if i == j - 1
                else RationalFunction.zero() for i in range(r)}
        for p in range(anchor + r, hi + 1):
            w = p - r
            acc = RationalFunction.zero()
            for i in range(r):
                acc = acc + lev(i, w) * vals[w + i]
            vals[p] = -acc / lev(r, w)
        for w in range(anchor - 1, lo - 1, -1):
            acc = RationalFunction.zero()
            for i in range(1, r + 1):
                acc = acc + lev(i, w) * vals[w + i]
            vals[w] = -acc / lev(0, w)
        table.append(vals)
    return table


def _same_series(a, b) -> bool:
    return (a.val, a.coeffs, a.prec) == (b.val, b.coeffs, b.prec)


def _singular_operator(order: int, point: str, seed: int) -> OreOperator:
    """A seeded random operator whose trailing coefficient vanishes at the
    orbit's root and whose leading one vanishes one step right of it, so
    that its solutions gain zeros and poles in q on both sides."""
    raw = random_operator(RandomOperatorSpec(order=order, coeff_degree=1,
                                             height=3, seed=seed))
    m = pt(point).min_poly
    coeffs = list(raw.coeffs)
    coeffs[0] = coeffs[0] * RationalFunction(m)
    coeffs[order] = coeffs[order] * RationalFunction(m.shift(-1))
    return OreOperator(coeffs).normalized()


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("point", ["0", "root(x^2-2)", "root(x^3-2)"])
def test_table_matches_a_plain_unrolling(order, point):
    """Numerators over known denominators give the canonical values, the
    q-orders and the expansions of a division-per-step unrolling, on both
    sides of the anchor."""
    modulus = _singular_operator(order, point, seed=order)
    orbit = pt(point).orbit()
    # anchored at 1, the first step each way divides by a multiple of q
    basis = SolutionBasis(modulus, orbit, anchor=1)
    lo, hi = -1, order + 2
    expected = _unrolled(modulus, orbit.value(), 1, lo, hi)
    for j in range(1, order + 1):
        for n in range(lo, hi + 1):
            exact = basis.value(j, n)
            assert exact == expected[j - 1][n]
            assert basis.valuation(j, n) == nu_q(exact)
            assert _same_series(basis.series(j, n),
                                q_series(exact, basis.precision))


@pytest.mark.parametrize("point, offset", [
    ("0", 4), ("root(x^2-2)", 3), ("root(x^3-2)", 3),
])
def test_exact_cancellation_ends_the_doubling(point, offset):
    """B = b_1(n+1)(x-z) - b_1(n)(x-z)*S annihilates b_1 at n, z = rho + n.
    The series carry the heights of unreduced numerators and denominators,
    which bound the value more loosely than lowest terms; the doubling still
    ends, in a proof that the entry is exactly zero."""
    modulus = _singular_operator(3, point, seed=7)
    orbit = pt(point).orbit()
    basis = SolutionBasis(modulus, orbit)
    n = basis.anchor + offset
    z = basis.point_value(n)
    row = QuotientElement((basis.value(1, n + 1).shift(-z),
                           -basis.value(1, n).shift(-z), 0))
    values = basis.with_enough_precision(
        lambda: [nu_q(v) for v in apply_element_all(row, basis, n)])
    assert values[0] is INFINITY
    assert apply_element_all(row, basis, n)[0].is_zero
    assert basis.precision > ore.START_PRECISION
    # the bound the doubling has to pass: the degrees of both products,
    # coordinates and unreduced table entries
    bound = sum(c.num.degree + c.den.degree for c in row.coords[:2])
    bound += 2 * sum(basis._values[(1, m)].degree + basis._dens[m].degree
                     for m in (n, n + 1))
    assert basis.precision <= 2 * max(ore.START_PRECISION, bound)


def test_table_reach_is_bounded():
    """Positions up to MAX_TABLE_REACH beyond either end of the identity
    window are read; one more is refused before the table grows."""
    basis = SolutionBasis(op("x*(x-99) + S"), pt("0"))
    reach = ore.MAX_TABLE_REACH
    assert (basis.anchor, basis.order) == (0, 1)
    assert basis.valuation(1, reach) == 2
    assert basis.valuation(1, -reach) == 0
    extent = len(basis._values)
    for n in (reach + 1, -reach - 1):
        with pytest.raises(PrecintError, match=(
                f"position {n} lies more than {reach} offsets outside the "
                "identity window 0..0 of the solution table anchored at 0")):
            basis.value(1, n)
    assert len(basis._values) == extent
