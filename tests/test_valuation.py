"""The shift-case value function, growths, and the per-orbit worklist."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precint import ore
from precint import (
    INFINITY,
    AlgebraicPoint,
    MissingRightBoundError,
    OrbitAnalysis,
    OreOperator,
    Poly,
    PrecintError,
    QuotientElement,
    RandomOperatorSpec,
    RationalFunction,
    SolutionBasis,
    apply_element_all,
    brute_val,
    galois_norm_uniformizer,
    nu_at_factor,
    nu_q,
    parse_operator,
    random_operators,
    singular_points,
    val_at,
)
from precint.valuation import detect_orbits, worklist_points
from conftest import CUBIC, el, op, pt, random_poly, random_rf


# -- singular points -----------------------------------------------------------


def test_singular_points_of_cubic(cubic, orbit_z):
    left, right = singular_points(cubic, orbit_z)
    assert left == (-2,)
    assert right == (1,)


def test_singular_points_constant_extremes(orbit_z):
    assert singular_points(op("S^2 - 1"), orbit_z) == ((), ())


def test_singular_points_algebraic_orbit():
    orbit = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    left, right = singular_points(op("x^2 - 2 + S^2"), orbit)
    assert 0 in left
    assert right == ()


def test_analyze_refuses_a_modulus_with_denominators(orbit_z):
    """The modulus is used as passed, so one that is not normalized is
    refused rather than normalized behind the caller's back."""
    with pytest.raises(PrecintError, match="not normalized"):
        OrbitAnalysis.analyze(parse_operator("1/2 + (x/(x+1))*S"), orbit_z)


# -- the value function ---------------------------------------------------------


def test_val_examples(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    zero_pt = pt("0")
    assert val_at(el("S", 3), zero_pt, analysis) == -1
    assert val_at(el("1", 3), zero_pt, analysis) == 0
    assert val_at(QuotientElement.zero(3), zero_pt, analysis) is INFINITY
    assert val_at(el("S^2", 3), zero_pt, analysis) == -1
    assert val_at(el("x*S", 3), zero_pt, analysis) == 0
    assert val_at(el("x*S^2", 3), zero_pt, analysis) == 0


@pytest.mark.parametrize("seed", [61, 62])
def test_value_function_axioms(seed, cubic, orbit_z):
    rng = random.Random(seed)
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    point = pt("0")
    pole = Poly.x()  # x - 0
    for _ in range(12):
        a = random_rf(rng, nonzero=True)
        b1 = QuotientElement(tuple(random_rf(rng, max_degree=1, height=2)
                                   for _ in range(3)))
        b2 = QuotientElement(tuple(random_rf(rng, max_degree=1, height=2)
                                   for _ in range(3)))
        if b1.is_zero or b2.is_zero:
            continue
        assert val_at(b1.scaled(a), point, analysis) == \
            nu_at_factor(a, pole) + val_at(b1, point, analysis)
        s = b1 + b2
        lower = min(val_at(b1, point, analysis), val_at(b2, point, analysis))
        assert val_at(s, point, analysis) >= lower
    assert val_at(QuotientElement.zero(3), point, analysis) is INFINITY


def test_anchor_override_must_stay_left_of_default(cubic, orbit_z):
    with pytest.raises(PrecintError):
        OrbitAnalysis.analyze(cubic, orbit_z, anchor=0)


def test_any_anchor_is_accepted_on_an_orbit_without_roots(orbit_z):
    """S^2 - 1 has no coefficient root on Z, so no anchor lies right of
    one; the left edge is None, not the default anchor 0."""
    analysis = OrbitAnalysis.analyze(op("S^2 - 1"), orbit_z, anchor=3)
    assert (analysis.basis.anchor, analysis.growths) == (3, (0, 0))
    assert analysis.left_edge is None and analysis.right_edge is None


@pytest.mark.parametrize("operator_text,points", [
    ("(x+2)^2 + x*S^2 + (x+2)*S^3", (-2, -1, 0, 1, 2)),
    ("1 + x*S", (-1, 0, 1, 2)),
    ("x - 1 + (x+1)*S^2", (-2, 0, 1, 3)),
])
def test_val_is_anchor_independent(operator_text, points, orbit_z):
    operator = op(operator_text)
    base = OrbitAnalysis.analyze(operator, orbit_z)
    shifted = OrbitAnalysis.analyze(operator, orbit_z,
                                    anchor=base.basis.anchor - 3)
    r = operator.order
    for n in points:
        point = orbit_z.shifted(n)
        for i in range(r):
            element = QuotientElement.standard(r, i)
            assert val_at(element, point, base) == val_at(element, point, shifted)


# -- valuation growth -----------------------------------------------------------


def test_growths_of_cubic(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    assert analysis.growths == (1, 0, -1)


def test_growth_without_singularities_is_zero(orbit_z):
    analysis = OrbitAnalysis.analyze(op("S^2 - 1"), orbit_z)
    assert analysis.growths == (0, 0)


def test_oscillating_solution_has_equal_liminfs(orbit_z):
    # the solution 1 + q + (-1)^n of S^2 - 1 oscillates between
    # valuations 0 and 1; both liminfs are 0 and the growth vanishes
    basis = SolutionBasis(op("S^2 - 1"), orbit_z)
    q = RationalFunction(Poly([0, 1]))
    two_plus_q = RationalFunction(Poly([2, 1]))

    def f(n):
        return two_plus_q * basis.value(1, n) + q * basis.value(2, n)

    left_min = min(nu_q(f(n)) for n in (-10, -9))
    right_min = min(nu_q(f(n)) for n in (9, 10))
    assert left_min == right_min == 0


def test_growth_window_is_stable_under_extension(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    basis = analysis.basis
    r = analysis.order
    edge = max(analysis.singular_left + analysis.singular_right)
    for j in (1, 2, 3):
        short = min(nu_q(basis.value(j, n)) for n in range(edge + 1, edge + 1 + r))
        long = min(nu_q(basis.value(j, n))
                   for n in range(edge + 1, edge + 1 + 3 * r))
        assert short == long == analysis.growths[j - 1]


# -- the worklist -----------------------------------------------------------------


def points_of(operator, bound=None):
    """The orbits of the extreme coefficients' roots, each with the offsets
    the global pass treats there under an optional right bound on Z."""
    bounds = {} if bound is None else {"Z": bound}
    return [(orbit, worklist_points(OrbitAnalysis.analyze(operator, orbit), bounds))
            for orbit in detect_orbits(operator)]


def test_worklist_for_cubic_with_bound(cubic):
    result = points_of(cubic, 0)
    assert len(result) == 1
    orbit, points = result[0]
    assert orbit.orbit_key() == "Z"
    assert points == [-2, -1, 0]


def test_worklist_empty_without_singularities(orbit_z):
    operator = op("S^2 - 1")
    assert detect_orbits(operator) == ()
    analysis = OrbitAnalysis.analyze(operator, orbit_z)
    assert worklist_points(analysis, {"Z": 5}) == []


def test_orbits_come_by_descending_degree():
    """A later orbit never has a higher degree than an earlier one, so no
    combine of a later pass vanishes at a point already treated."""
    operator = op("x*(x^2-2)*(x^3-6*x+1) + S + (x^2-2)*(x+1)*S^2")
    assert [o.orbit_key() for o in detect_orbits(operator)] == \
        ["1-6*x+x^3", "-2+x^2", "Z"]


def test_worklist_requires_bound_for_nonzero_growth(cubic):
    with pytest.raises(MissingRightBoundError) as err:
        points_of(cubic)
    assert err.value.orbit_key == "Z"
    assert err.value.growths == (1, 0, -1)


def test_worklist_covers_points_left_of_first_drop_position():
    # trailing coefficient constant, leading coefficient vanishing at 0:
    # the drop position is 0 + order, but non-integrality starts at 1,
    # so the range must start at the root itself
    operator = op("1 + x*S^2")
    orbit, points = points_of(operator, 3)[0]
    assert points[0] == 0
    analysis = OrbitAnalysis.analyze(operator, orbit)
    assert val_at(el("S", 2), pt("1"), analysis) == -1  # inside the range


def test_worklist_respects_bound_even_with_zero_growth():
    # trailing root at 0 and leading root at -1 compensate: zero growth
    operator = op("x + (x+1)*S")
    analysis = OrbitAnalysis.analyze(operator, AlgebraicPoint.from_rational(0))
    assert analysis.growths == (0,)
    full = points_of(operator)[0][1]
    assert full == [-1, 0]
    clipped = points_of(operator, -1)[0][1]
    assert clipped == [n for n in full if n <= -1]


EDGE_OPERATORS = [
    "(x^2-2)*(x^2-2*x-1) + x*S + (x^2-2*x-1)*S^2",
    "(x^3-2)*(x^3-3*x^2+3*x-3) + x*S + (x^3-3*x^2+3*x-3)*S^2",
    "x*(x^2-2)*(x^3-2) + S + (x^2-2)*(x^3-2)*S^2",
]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_edges_match_the_roots_and_bound_the_worklist(order):
    """On every orbit of the extreme coefficients' roots, the left edge is
    the default anchor and the right edge the last singular offset, and a
    right bound at the right edge makes the worklist run exactly from one
    edge to the other."""
    spec = RandomOperatorSpec(order=order, seed=3100 + order)
    operators = random_operators(spec, 4) + [op(text) for text in EDGE_OPERATORS]
    for operator in operators:
        for orbit in detect_orbits(operator):
            analysis = OrbitAnalysis.analyze(operator, orbit)
            left, right = singular_points(operator, orbit)
            assert analysis.left_edge == ore.default_anchor(operator, orbit)
            assert analysis.right_edge == max(left + right)
            bounds = {orbit.orbit_key(): analysis.right_edge}
            assert worklist_points(analysis, bounds) == \
                list(range(analysis.left_edge, analysis.right_edge + 1))


# -- integrality off the singular orbits -------------------------------------------


@pytest.mark.parametrize("seed", [63, 64])
def test_value_is_coordinate_minimum_on_clean_orbits(seed, orbit_z):
    rng = random.Random(seed)
    for _ in range(5):
        middle = random_poly(rng, max_degree=2, height=3)
        operator = OreOperator((
            RationalFunction.constant(rng.randint(1, 3)),
            RationalFunction(middle),
            RationalFunction.constant(rng.randint(1, 3)),
        )).normalized()
        analysis = OrbitAnalysis.analyze(operator, orbit_z)
        assert analysis.left_edge is None
        for n in (-2, 0, 3):
            point = orbit_z.shifted(n)
            pole = Poly([-Fraction(n), 1])
            element = QuotientElement(tuple(random_rf(rng, max_degree=1,
                                                      height=2)
                                            for _ in range(2)))
            expected = min(nu_at_factor(c, pole) for c in element.coords)
            assert val_at(element, point, analysis) == expected


# -- the series path against the oracle ---------------------------------------------


@pytest.mark.parametrize("n", [1, 3])
def test_action_that_cancels_exactly_reads_as_infinity(cubic, orbit_z, n):
    """B = b_1(n+1)(x-n) - b_1(n)(x-n)*S annihilates b_1 at n by
    cancellation between two nonzero terms.  The value is that of the other
    solutions, read at the starting precision: that entry of the action is
    zero to a precision above their least valuation, so it cannot hold the
    minimum.  Read on its own, it is proven exactly zero after a bounded
    number of doublings."""
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    basis = analysis.basis
    shift = Fraction(-n)
    row = QuotientElement((basis.value(1, n + 1).shift(shift),
                           -basis.value(1, n).shift(shift), 0))
    value = val_at(row, orbit_z.shifted(n), analysis)
    assert basis.precision == ore.START_PRECISION
    action = apply_element_all(row, basis, n)
    assert value == min(nu_q(v) for v in action[1:])
    assert value == brute_val(row, orbit_z.shifted(n), cubic, 9)
    assert basis.with_enough_precision(
        lambda: nu_q(apply_element_all(row, basis, n)[0])) is INFINITY
    assert basis.precision <= 16 * ore.START_PRECISION


DIFFERENTIAL = [
    ("(x+1)*(x-2) + x*S", "0"),
    ("x*(x-1) + (x+1)*S + (x-2)*S^2", "0"),
    (CUBIC, "0"),
    ("x*(x-1) + x*S + S^2 + S^3 + (x+3)*S^4", "0"),
    ("x^2 - 2 + x*S + S^2", "root(x^2-2)"),
]


@pytest.mark.parametrize("operator, orbit", DIFFERENTIAL)
def test_val_at_agrees_with_brute_val(operator, orbit):
    """Seeded random elements, their coordinates scaled by powers of the
    point's uniformizer norm, at points around the singular offsets, on
    operators of order 1-4 and one orbit of degree 2: the series path
    reads the same value as the exact, cache-free oracle."""
    modulus = op(operator)
    orbit = pt(orbit).orbit()
    analysis = OrbitAnalysis.analyze(modulus, orbit)
    r = modulus.order
    left, right = analysis.left_edge, analysis.right_edge
    window = r + right - left
    rng = random.Random(f"{operator}@{orbit}")
    for _ in range(4):
        point = orbit.shifted(rng.randint(left - 1, right + 1))
        norm = RationalFunction(galois_norm_uniformizer(point))
        element = QuotientElement(tuple(
            random_rf(rng, max_degree=1, height=2) * norm ** rng.randint(-1, 1)
            for _ in range(r)))
        assert val_at(element, point, analysis) == brute_val(element, point,
                                                             modulus, window)
