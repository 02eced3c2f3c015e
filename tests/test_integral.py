"""The generic improvement loop on both instantiations, the discriminant,
and the global pass."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precint import (
    AlgebraicPoint,
    BasisMatrix,
    IterationCapError,
    OrbitAnalysis,
    Poly,
    PrecintError,
    QuotientElement,
    RationalFunction,
    ShiftSpace,
    ToySpace,
    ZSpec,
    discriminant,
    find_alpha,
    global_integral_basis,
    local_integral_basis,
    module_equal_at,
    val_at,
)
from precint import _linalg
from conftest import el, op, pt


def _known_local(order=3):
    return BasisMatrix((
        el("1", order),
        el("(x-2)/x^2 + (1/x)*S", order),
        el("-2/x + S^2", order),
    ))


def _known_global():
    return BasisMatrix((
        el("1", 3),
        el("(x-2)/x^2 + (1/x)*S", 3),
        el("(-x+2)/x^2 + (-3*x-1)/(x*(x+1)^2)*S + (1/(x+1))*S^2", 3),
    ))


# -- the local loop on the shift space ----------------------------------------


def test_local_basis_at_zero_matches_known_module(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    result = local_integral_basis(ShiftSpace(analysis),
                                  BasisMatrix.standard(3), pt("0"))
    assert module_equal_at(result, _known_local(), pt("0"))
    # this run lands on the known coordinates exactly
    assert result.rows == _known_local().rows


def test_known_local_elements_have_value_zero(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    for row in _known_local().rows:
        assert val_at(row, pt("0"), analysis) == 0


def test_combine_updates_decrement_discriminant_by_one(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    result = local_integral_basis(ShiftSpace(analysis),
                                  BasisMatrix.standard(3), pt("0"))
    combines = [u for u in result.provenance if u.kind == "combine"]
    assert combines
    for u in combines:
        assert u.disc_after == u.disc_before - 1


def test_combine_count_is_bounded_by_normalized_discriminant(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    space = ShiftSpace(analysis)
    point = pt("0")
    norm = RationalFunction(space.uniformizer_norm(point))
    normalized = []
    for row in BasisMatrix.standard(3).rows:
        v = space.val(row, point)
        normalized.append(row if v == 0 else row.scaled(norm ** (-v)))
    bound = space.discriminant(normalized, point)
    result = local_integral_basis(space, BasisMatrix.standard(3), point)
    combines = [u for u in result.provenance if u.kind == "combine"]
    assert len(combines) <= bound


def test_local_run_is_idempotent(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    space = ShiftSpace(analysis)
    first = local_integral_basis(space, BasisMatrix.standard(3), pt("0"))
    second = local_integral_basis(space, first, pt("0"))
    assert second.rows == first.rows
    assert len(second.provenance) == len(first.provenance)


def test_output_spans_the_space(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    result = local_integral_basis(ShiftSpace(analysis),
                                  BasisMatrix.standard(3), pt("0"))
    assert _linalg.invert(result.coord_matrix()) is not None


def test_every_update_preserves_the_span(cubic, orbit_z):
    """Replaying the recorded updates step by step never degenerates the
    coordinate matrix."""
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    space = ShiftSpace(analysis)
    point = pt("0")
    result = local_integral_basis(space, BasisMatrix.standard(3), point)
    rows = list(BasisMatrix.standard(3).rows)
    norm = RationalFunction(space.uniformizer_norm(point))
    for u in result.provenance:
        d = u.row - 1
        if u.kind == "normalize":
            rows[d] = rows[d].scaled(norm ** u.exponent)
        else:
            new_row = rows[d].scaled(space.galois_sum(Fraction(1), point))
            for alpha, prev in zip(u.alphas, rows[:d]):
                if alpha != 0:
                    new_row = new_row + prev.scaled(space.galois_sum(alpha, point))
            rows[d] = new_row
        det = _linalg.determinant([list(r.coords) for r in rows])
        assert not det.is_zero
    assert tuple(rows) == result.rows


def test_iteration_cap_override(cubic, orbit_z, monkeypatch):
    monkeypatch.setenv("PRECINT_MAX_ITER", "0")
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    with pytest.raises(IterationCapError):
        local_integral_basis(ShiftSpace(analysis), BasisMatrix.standard(3),
                             pt("0"))


def test_discriminant_is_carried_from_update_to_update(cubic, orbit_z,
                                                      monkeypatch):
    """One determinant for the point, then one per update; each update
    starts where the previous one ended."""
    calls = []
    real = ShiftSpace.discriminant

    def counted(self, rows, point):
        calls.append(point)
        return real(self, rows, point)

    monkeypatch.setattr(ShiftSpace, "discriminant", counted)
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    result = local_integral_basis(ShiftSpace(analysis), BasisMatrix.standard(3),
                                  pt("0"))
    assert len(calls) == 1 + len(result.provenance)
    for prev, u in zip(result.provenance, result.provenance[1:]):
        assert u.disc_before == prev.disc_after


def test_stale_action_for_an_updated_row_fails_the_drop_check(cubic, orbit_z,
                                                             monkeypatch):
    """The drop-by-one check reads a freshly evaluated row: handing the loop
    the pre-update row's values for the row a combine built must fail it."""
    real_find = ShiftSpace.find_alpha
    real_disc = ShiftSpace.discriminant
    pending = {}

    def find_alpha(self, prefix, candidate, point):
        alphas = real_find(self, prefix, candidate, point)
        if alphas is not None:
            pending["row"] = (len(prefix), candidate)
        return alphas

    def discriminant(self, rows, point):
        if "row" in pending:
            d, old = pending["row"]
            if rows[d] != old:  # evaluated after the update
                del pending["row"]
                rows = list(rows)
                rows[d] = old
        return real_disc(self, rows, point)

    monkeypatch.setattr(ShiftSpace, "find_alpha", find_alpha)
    monkeypatch.setattr(ShiftSpace, "discriminant", discriminant)
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    with pytest.raises(PrecintError, match="expected a drop of exactly 1"):
        local_integral_basis(ShiftSpace(analysis), BasisMatrix.standard(3),
                             pt("0"))


# -- find_alpha -----------------------------------------------------------------


def test_find_alpha_solves_the_recorded_combination(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    space = ShiftSpace(analysis)
    prefix = [el("1", 3)]
    candidate = el("x*S", 3)
    assert find_alpha(space, prefix, candidate, pt("0")) == [Fraction(-2)]


def test_find_alpha_rejects_dependent_candidates(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    space = ShiftSpace(analysis)
    with pytest.raises(PrecintError):
        find_alpha(space, [el("1", 3)], el("1", 3), pt("0"))


def test_find_alpha_none_on_finished_basis(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    space = ShiftSpace(analysis)
    rows = _known_local().rows
    assert find_alpha(space, list(rows[:2]), rows[2], pt("0")) is None


# -- the weighted toy space --------------------------------------------------------


def test_toy_space_zero_weights_leave_basis_alone():
    space = ToySpace((0, 0, 0))
    basis = BasisMatrix.standard(3)
    result = local_integral_basis(space, basis, pt("0"))
    assert result.rows == basis.rows
    assert result.provenance == ()


def test_toy_space_normalization_only():
    space = ToySpace((2, -1))
    basis = BasisMatrix.standard(2)
    result = local_integral_basis(space, basis, pt("0"))
    x = RationalFunction.x()
    assert result.rows[0] == QuotientElement.standard(2, 0).scaled(x ** -2)
    assert result.rows[1] == QuotientElement.standard(2, 1).scaled(x)
    assert all(u.kind == "normalize" for u in result.provenance)


def test_toy_space_find_alpha_none_on_unit_basis():
    space = ToySpace((1, 0))
    x = RationalFunction.x()
    rows = [QuotientElement.standard(2, 0).scaled(x ** -1),
            QuotientElement.standard(2, 1)]
    assert find_alpha(space, rows[:1], rows[1], pt("0")) is None


def test_toy_space_val_is_weighted_minimum():
    space = ToySpace((2, -1))
    element = QuotientElement((RationalFunction.x(), RationalFunction.x()))
    assert space.val(element, pt("0")) == 0  # min(2+1, -1+1)


def test_toy_space_at_nonzero_point():
    space = ToySpace((0, -1))
    basis = BasisMatrix.standard(2)
    result = local_integral_basis(space, basis, pt("2"))
    expected = QuotientElement.standard(2, 1).scaled(
        RationalFunction(Poly([-2, 1])))
    assert result.rows[1] == expected


# -- the discriminant ----------------------------------------------------------------


def test_discriminant_of_standard_basis(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    assert discriminant(BasisMatrix.standard(3), pt("0"), analysis) == 1


def test_discriminant_shifts_by_one_under_row_scaling(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    rows = list(BasisMatrix.standard(3).rows)
    rows[1] = rows[1].scaled(RationalFunction.x())
    scaled = BasisMatrix(tuple(rows))
    assert discriminant(scaled, pt("0"), analysis) == 2


def test_discriminant_of_known_local_basis_is_nonnegative(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    value = discriminant(_known_local(), pt("0"), analysis)
    assert 0 <= value <= 3  # bounded by the normalized standard basis value


# -- the global pass ------------------------------------------------------------------


def test_global_matches_known_basis_on_every_processed_point(cubic):
    run = global_integral_basis(cubic, ZSpec({"Z": 0}))
    assert [e.points for e in run.processed] == [(-2, -1, 0)]
    known = _known_global()
    for n in (-2, -1, 0):
        assert module_equal_at(run.basis, known, pt(str(n)))
    for row in run.basis.rows:
        for c in row.coords:
            for coefficient in c.num.coeffs + c.den.coeffs:
                assert isinstance(coefficient, Fraction)


def test_global_without_singularities_returns_standard_basis():
    run = global_integral_basis(op("S^2 - 1"))
    assert run.basis.rows == BasisMatrix.standard(2).rows
    assert run.processed == ()


def test_global_is_safe_at_all_processed_points(cubic):
    run = global_integral_basis(cubic, ZSpec({"Z": 0}))
    for entry in run.processed:
        analysis = entry.analysis
        for n in entry.points:
            point = entry.orbit.shifted(n)
            for row in run.basis.rows:
                assert val_at(row, point, analysis) >= 0


def test_global_algebraic_orbit_stays_over_the_rationals():
    operator = op("x^2 - 2 + S^2")
    orbit = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    run = global_integral_basis(operator, ZSpec({orbit.orbit_key(): 1}))
    assert [e.points for e in run.processed] == [(0, 1)]
    for row in run.basis.rows:
        for c in row.coords:
            for coefficient in c.num.coeffs + c.den.coeffs:
                assert isinstance(coefficient, Fraction)
    # the second row picks up the inverse minimal polynomial of root+1
    expected = QuotientElement.standard(2, 1).scaled(
        RationalFunction(Poly.one(), Poly([-1, -2, 1])))
    assert run.basis.rows[1] == expected


def test_global_propagates_missing_bound(cubic):
    from precint import MissingRightBoundError

    with pytest.raises(MissingRightBoundError):
        global_integral_basis(cubic)
