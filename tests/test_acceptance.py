"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with ``pytest tests/test_acceptance.py -v -s``).

All comparisons are exact; there are no numeric tolerances anywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precint import (
    AlgebraicPoint,
    BasisMatrix,
    OrbitAnalysis,
    OreOperator,
    Poly,
    QuotientElement,
    RationalFunction,
    ShiftSpace,
    SolutionBasis,
    brute_val,
    certificate,
    galois_norm_uniformizer,
    global_integral_basis,
    local_integral_basis,
    module_equal_at,
    nu_q,
    val_at,
)
from conftest import CUBIC, coeff, el, op, pt, random_poly, random_rf


def _report(number: int, label: str):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def _known_local():
    return BasisMatrix((
        el("1", 3),
        el("(x-2)/x^2 + (1/x)*S", 3),
        el("-2/x + S^2", 3),
    ))


def _known_global():
    return BasisMatrix((
        el("1", 3),
        el("(x-2)/x^2 + (1/x)*S", 3),
        el("(-x+2)/x^2 + (-3*x-1)/(x*(x+1)^2)*S + (1/(x+1))*S^2", 3),
    ))


def _rational_coords(basis: BasisMatrix) -> bool:
    return all(
        isinstance(c, Fraction)
        for row in basis.rows
        for f in row.coords
        for c in f.num.coeffs + f.den.coeffs
    )


def _singular_random_operator(rng: random.Random) -> OreOperator:
    """Order-2 operator with small integer roots in its extreme coefficients."""
    a = rng.randint(-2, 1)
    b = rng.randint(-1, 2)
    ell0 = Poly([-Fraction(a), 1])
    if rng.random() < 0.5:
        ell0 = ell0 * Poly([rng.randint(1, 2)])
    ell2 = Poly([-Fraction(b), 1]) if rng.random() < 0.7 else Poly([1])
    middle = random_poly(rng, max_degree=1, height=2)
    return OreOperator((RationalFunction(ell0), RationalFunction(middle),
                        RationalFunction(ell2))).normalized()


def _bounds_for(operator: OreOperator) -> dict:
    from precint.valuation import detect_orbits

    bounds = {}
    for orbit in detect_orbits(operator):
        analysis = OrbitAnalysis.analyze(operator, orbit)
        bounds[orbit.orbit_key()] = analysis.right_edge
    return bounds


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_solution_table(cubic, orbit_z):
    basis = SolutionBasis(cubic, orbit_z, anchor=-2)
    expected = {
        (1, 1): "-x",
        (1, 2): "x*(x-1)/(x+1)",
        (2, 2): "-x-1",
        (3, 1): "(-x+2)/x",
        (3, 2): "(x^2-3*x+2)/(x*(x+1))",
    }
    for (j, n), text in expected.items():
        assert basis.value(j, n) == coeff(text)
    _report(1, "solution table")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_values_at_zero(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    assert val_at(el("1", 3), pt("0"), analysis) == 0
    assert val_at(el("S", 3), pt("0"), analysis) == -1
    assert val_at(el("S^2", 3), pt("0"), analysis) == -1
    _report(2, "values at 0")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_local_basis_at_zero(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    computed = local_integral_basis(ShiftSpace(analysis),
                                    BasisMatrix.standard(3), pt("0"))
    known = _known_local()
    assert module_equal_at(computed, known, pt("0"))
    for row in known.rows:
        assert val_at(row, pt("0"), analysis) == 0
    _report(3, "local basis at 0")


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_global_basis(cubic):
    run = global_integral_basis(cubic, {"Z": 0})
    known = _known_global()
    for n in (-2, -1, 0):
        assert module_equal_at(run.basis, known, pt(str(n)))
    assert _rational_coords(run.basis)
    _report(4, "global basis")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_negative_growth(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    growth = analysis.growths[2]
    assert growth < 0
    assert growth == -1
    # window-extension oracle: the right window minimum has stabilized
    basis = analysis.basis
    edge = max(analysis.singular_left + analysis.singular_right)
    r = analysis.order
    short = min(nu_q(basis.value(3, n)) for n in range(edge + 1, edge + 1 + r))
    long = min(nu_q(basis.value(3, n)) for n in range(edge + 1, edge + 1 + 3 * r))
    assert short == long == -1
    _report(5, "negative valuation growth")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_rootless_extremes_keep_standard_basis():
    rng = random.Random(601)
    done = 0
    while done < 20:
        order = rng.randint(1, 3)
        coeffs = [RationalFunction.constant(rng.choice((1, 2, 3, -1, -2)))]
        for _ in range(order - 1):
            coeffs.append(RationalFunction(random_poly(rng, 2, 3)))
        coeffs.append(RationalFunction.constant(rng.choice((1, 2, 3, -1, -2))))
        operator = OreOperator(tuple(coeffs)).normalized()
        # the product of the extreme coefficients has no rational roots
        extremes = operator.polynomial_coeffs()
        assert (extremes[0] * extremes[-1]).degree == 0
        run = global_integral_basis(operator)
        assert run.basis.rows == BasisMatrix.standard(operator.order).rows
        done += 1
    _report(6, "standard basis off singular orbits")


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_certificates(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    local = local_integral_basis(ShiftSpace(analysis),
                                 BasisMatrix.standard(3), pt("0"))
    report = certificate(cubic, local, pt("0"), samples=200, seed=700)
    assert report.passed

    run = global_integral_basis(cubic, {"Z": 0})
    for n in (-2, -1, 0):
        report = certificate(cubic, run.basis, pt(str(n)), samples=200,
                             seed=701 + n)
        assert report.passed

    rng = random.Random(702)
    for k in range(10):
        operator = _singular_random_operator(rng)
        bounds = _bounds_for(operator)
        run = global_integral_basis(operator, bounds)
        for entry in run.processed:
            for n in entry.points:
                point = entry.analysis.orbit.shifted(n)
                report = certificate(operator, run.basis, point,
                                     samples=200, seed=710 + k)
                assert report.passed, (
                    f"violations for operator {operator!r} at {point}: "
                    f"{report.violations[:3]}"
                )
    _report(7, "integrality certificates")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_idempotence_and_discriminant(cubic, orbit_z):
    run = global_integral_basis(cubic, {"Z": 0})
    analysis = run.processed[0].analysis
    space = ShiftSpace(analysis)

    for u in run.basis.provenance:
        if u.kind == "combine":
            assert u.disc_after == u.disc_before - 1

    norm_cache = {}
    for n in run.processed[0].points:
        point = orbit_z.shifted(n)
        rerun = local_integral_basis(space, run.basis, point)
        assert rerun.rows == run.basis.rows
        assert len(rerun.provenance) == len(run.basis.provenance)
        # iteration count at this point is bounded by the discriminant of
        # the fully normalized starting basis
        combines = [u for u in run.basis.provenance
                    if u.kind == "combine" and u.point == str(point)]
        if not combines:
            continue
        start_rows = []
        norm = RationalFunction(galois_norm_uniformizer(point))
        for row in BasisMatrix.standard(3).rows:
            v = space.val(row, point)
            start_rows.append(row if v == 0 else row.scaled(norm ** (-v)))
        bound = space.discriminant(start_rows, point)
        assert len(combines) <= bound
    _report(8, "idempotence and discriminant accounting")


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_anchor_independence():
    rng = random.Random(901)
    orbit = AlgebraicPoint.from_rational(0)
    for _ in range(5):
        operator = _singular_random_operator(rng)
        base = OrbitAnalysis.analyze(operator, orbit)
        shifted = OrbitAnalysis.analyze(operator, orbit,
                                        anchor=base.basis.anchor - 3)
        r = operator.order
        points = [orbit.shifted(n) for n in range(-4, 6)]
        assert len(points) == 10
        for point in points:
            for i in range(r):
                element = QuotientElement.standard(r, i)
                assert val_at(element, point, base) == \
                    val_at(element, point, shifted)
    _report(9, "anchor independence")


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_oracle_agreement():
    rng = random.Random(1001)
    orbit = AlgebraicPoint.from_rational(0)
    checked = 0
    while checked < 50:
        operator = _singular_random_operator(rng)
        analysis = OrbitAnalysis.analyze(operator, orbit)
        r = operator.order
        element = QuotientElement(tuple(random_rf(rng, max_degree=1, height=2)
                                        for _ in range(r)))
        n = rng.randint(-3, 4)
        point = orbit.shifted(n)
        assert brute_val(element, point, operator, 10) == \
            val_at(element, point, analysis)
        checked += 1
    _report(10, "brute-force oracle agreement")


# -- criterion 11 --------------------------------------------------------------


def test_criterion_11_algebraic_point_pipeline():
    operator = op("x^2 - 2 + S^2")
    orbit = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    run = global_integral_basis(operator, {orbit.orbit_key(): 1})
    assert _rational_coords(run.basis)
    for n in (0, 1):
        point = orbit.shifted(n)
        report = certificate(operator, run.basis, point, samples=200,
                             seed=1100 + n)
        assert report.passed
    _report(11, "algebraic-point pipeline")
