"""The generic improvement loop on both instantiations, the discriminant,
and the global pass."""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction
from typing import List, Tuple

import pytest

from precint import (
    INFINITY,
    AlgebraicPoint,
    BasisMatrix,
    OrbitAnalysis,
    Poly,
    PrecintError,
    QuotientElement,
    RationalFunction,
    ShiftSpace,
    ToySpace,
    ZSpec,
    galois_norm_uniformizer,
    galois_trace_sum,
    global_integral_basis,
    local_integral_basis,
    module_equal_at,
    nu_at_factor,
    val_at,
)
from precint import _linalg, cli, integral
from precint.integral import _CAP_MARGIN, _iteration_cap
from precint.ore import apply_element_all
from precint.qvalues import nu_q
from precint.valuation import detect_orbits, worklist_points
from conftest import el, op, planted_operator, pt


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
    norm = RationalFunction(galois_norm_uniformizer(point))
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
    norm = galois_norm_uniformizer(pt("0"))
    assert _linalg.determinant(result.coord_matrix(),
                               lambda f: nu_at_factor(f, norm)) is not INFINITY


def _fresh_discriminant(space, rows, point) -> int:
    """The discriminant of the rows at the point from one elimination of
    their actions, with nothing carried over from an earlier call."""
    basis = space.analysis.basis
    return basis.with_enough_precision(lambda: _linalg.determinant(
        [apply_element_all(row, basis, point.offset) for row in rows], nu_q))


def _replay(space, basis, point) -> Tuple[int, BasisMatrix]:
    """Runs the local loop at the point, then replays its recorded updates
    from `basis` with the Galois-trace formula sum_i Tr(alpha_i/(x-z)) B_i,
    checking after each step that the coordinate matrix does not
    degenerate and that the recorded discriminant is that of a fresh
    elimination, and at the end that the replay lands on the loop's rows;
    returns the number of combines and the loop's result."""
    result = local_integral_basis(space, basis, point)
    rows = list(basis.rows)
    norm = RationalFunction(galois_norm_uniformizer(point))
    updates = result.provenance[len(basis.provenance):]
    for u in updates:
        d = u.row - 1
        if u.kind == "normalize":
            rows[d] = rows[d].scaled(norm ** u.exponent)
        else:
            new_row = rows[d].scaled(galois_trace_sum(Fraction(1), point))
            for alpha, prev in zip(u.alphas, rows[:d]):
                if alpha != 0:
                    new_row = new_row + prev.scaled(galois_trace_sum(alpha, point))
            rows[d] = new_row
        det = _linalg.determinant([list(r.coords) for r in rows],
                                  lambda f: nu_at_factor(f, norm.num))
        assert det is not INFINITY
        assert u.disc_after == _fresh_discriminant(space, rows, point)
    assert tuple(rows) == result.rows
    return sum(u.kind == "combine" for u in updates), result


def test_every_update_preserves_the_span(cubic, orbit_z):
    """Replaying the recorded updates step by step never degenerates the
    coordinate matrix."""
    space = ShiftSpace(OrbitAnalysis.analyze(cubic, orbit_z))
    assert _replay(space, BasisMatrix.standard(3), pt("0"))[0] > 0


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_every_update_preserves_the_span_on_random_operators(order):
    """The same replay at every point of the integer orbit's worklist, point
    after point as the global pass goes, on seeded random operators: a
    combine at a rational point divides the combination by x - z, and the
    trace formula must give the same rows."""
    combines = 0
    for seed in range(3):
        operator = planted_operator(order, 2, seed)
        analysis = OrbitAnalysis.analyze(operator, AlgebraicPoint.from_rational(0))
        space = ShiftSpace(analysis)
        basis = BasisMatrix.standard(order)
        points = worklist_points(analysis, ZSpec({"Z": analysis.right_edge()}))
        assert points
        for n in points:
            point = analysis.orbit.shifted(n)
            count, basis = _replay(space, basis, point)
            combines += count
    # an order-1 row of value zero has a nonzero residue, so it never combines
    assert (combines > 0) == (order > 1)


def test_every_update_preserves_the_span_at_an_algebraic_point():
    operator = op("(x^2-2)*(x^2-2*x-1) + x*S + (x^2-2*x-1)*S^2")
    point = pt("root(x^2-2)+1")
    space = ShiftSpace(OrbitAnalysis.analyze(operator, pt("root(x^2-2)")))
    assert _replay(space, BasisMatrix.standard(2), point)[0] > 0


class _EndlessSpace:
    """A valued space that always offers an improvement and whose
    discriminant drops by exactly 1 per call, so only the bound derived
    from the discriminant stops the local loop."""

    dimension = 2

    def __init__(self, disc: int):
        self.disc = disc + 1

    def val(self, row, point):
        return 0

    def find_alpha(self, previous, row, point):
        combo = row
        for prev in previous:
            combo = combo + prev
        return [Fraction(1)] * len(previous), combo

    def discriminant(self, rows, point):
        self.disc -= 1
        return self.disc


@pytest.mark.parametrize("disc", [0, 3])
def test_update_loop_stops_at_the_discriminant_bound(disc):
    space = _EndlessSpace(disc)
    with pytest.raises(PrecintError) as info:
        local_integral_basis(space, BasisMatrix.standard(2), pt("0"))
    cap = disc + _CAP_MARGIN
    assert str(info.value) == (f"exceeded the discriminant bound of {cap} "
                               "updates at 0")
    # one discriminant for the bound, then one per combine until the cap
    assert space.disc == disc - (cap + 1)


def test_iteration_cap_counts_from_the_rows_at_value_zero():
    """The cap is the discriminant of the rows rescaled to value zero, that
    is the discriminant less the sum of the row values, plus the margin;
    the discriminant itself is returned as it is."""
    space = ToySpace([2, 1])
    e1, e2 = BasisMatrix.standard(2).rows
    x = RationalFunction.x()
    assert _iteration_cap(space, (e1, e2), pt("0")) == (_CAP_MARGIN, 3)
    rows = (e1.scaled(x), e1.scaled(x) + e2.scaled(x * x))
    # values 3 and 3, det x^3 of valuation 3 plus the weights 3
    assert _iteration_cap(space, rows, pt("0")) == (_CAP_MARGIN, 6)
    space = ToySpace([0, 0])
    # values 1 and 1, det x^3
    assert _iteration_cap(space, rows, pt("0")) == (1 + _CAP_MARGIN, 3)


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
        found = real_find(self, prefix, candidate, point)
        if found is not None:
            pending["row"] = (len(prefix), candidate)
        return found

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


# -- the discriminant by expansion along the updated row ---------------------

SPREAD4 = "(x+3)*(x-1) + x*S + S^2 + (x-4)*S^3"
ORD4 = "(x+2)^2*(x-1) + x*S + (x^2+1)*S^2 + S^3 + (x-3)*S^4"
ORD5 = "(x+2)^2*(x-1) + x*S + S^2 + S^3 + (x^2+1)*S^4 + (x-3)*S^5"
ORD6 = "(x+2)*(x-1) + x*S + S^2 + (x+1)*S^3 + S^4 + S^5 + (x-3)*S^6"


def _cofactor_builds(monkeypatch) -> List:
    """Records the result of every `_linalg.cofactors` call from now on."""
    builds = []
    real = _linalg.cofactors

    def recorded(fixed, d):
        builds.append(real(fixed, d))
        return builds[-1]

    monkeypatch.setattr(_linalg, "cofactors", recorded)
    return builds


@pytest.mark.parametrize("text, bound", [
    ("(x+2)^2 + x*S^2 + (x+2)*S^3", 4), (SPREAD4, 7), (ORD4, 15), (ORD5, 5),
    (ORD6, 5),
])
def test_every_carried_discriminant_is_a_fresh_elimination(text, bound,
                                                           monkeypatch):
    """At orders 3 to 6 an update's discriminant is expanded along the
    changed row: replaying the global pass point by point, every recorded
    disc_after equals a fresh elimination of the rows at that step, the
    replay ends on the basis of `global_integral_basis`, and the cofactors
    are built once per (point, row) with an update."""
    builds = _cofactor_builds(monkeypatch)
    operator = op(text)
    zspec = ZSpec({"Z": bound})
    basis = BasisMatrix.standard(operator.order)
    for orbit in detect_orbits(operator):
        analysis = OrbitAnalysis.analyze(operator, orbit)
        space = ShiftSpace(analysis)
        for n in worklist_points(analysis, zspec):
            basis = _replay(space, basis, orbit.shifted(n))[1]
    assert basis.rows == global_integral_basis(operator, zspec).basis.rows
    rows_updated = {(u.point, u.row) for u in basis.provenance}
    assert rows_updated
    # the global run builds as many again as the replayed one
    assert len(builds) == 2 * len(rows_updated)


def test_a_row_changed_again_reads_the_cofactors_of_the_rows_now_fixed(
        cubic, orbit_z):
    """Row 3 changed, then rows 1 and 2 together (an elimination), then row
    3 again: its cofactors are those of the new rows 1 and 2.  Each
    discriminant is that of a fresh elimination."""
    space = ShiftSpace(OrbitAnalysis.analyze(cubic, orbit_z))
    point = pt("0")
    rows = list(BasisMatrix.standard(3).rows)
    space.discriminant(rows, point)
    for change in [{2: "x + S^2"}, {0: "1 + x*S", 1: "S/x + x*S^2"},
                   {2: "1 + S + S^2"}, {1: "x^2*S"}, {2: "S^2/x"}]:
        for d, text in change.items():
            rows[d] = el(text, 3)
        assert space.discriminant(rows, point) == \
            _fresh_discriminant(space, rows, point), change


@pytest.mark.parametrize("expanded", [True, False])
def test_order_six_gives_the_basis_it_had_before_the_expansion(
        capsys, monkeypatch, expanded):
    """The basis of an order-6 operator is the one it was before the
    expansion existed (SHA-256 of the JSON), with its updates expanded and
    with order 6 taken out of `_EXPANDED_ORDERS`, where every discriminant
    is an elimination."""
    builds = _cofactor_builds(monkeypatch)
    if not expanded:
        monkeypatch.setattr(integral, "_EXPANDED_ORDERS", range(3, 6))
    code = cli.main(["global-basis", "--operator", ORD6, "--right-bound", "Z=5",
                     "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "95085c67366c05e915a9932dbb5ffeb2aee0af7fa4a6ddb4e65ad0129375f9d6")
    assert bool(builds) == expanded


def test_a_changed_row_in_the_span_of_the_fixed_rows_is_degenerate(
        cubic, orbit_z, monkeypatch):
    """At order 3 a changed row that lies in the span of the fixed rows has
    an exactly zero expansion, proven at bounded precision."""
    builds = _cofactor_builds(monkeypatch)
    space = ShiftSpace(OrbitAnalysis.analyze(cubic, orbit_z))
    rows = list(BasisMatrix.standard(3).rows)
    space.discriminant(rows, pt("0"))
    rows[2] = el("x + (x+1)*S", 3)
    start = time.perf_counter()
    with pytest.raises(PrecintError, match="discriminant of a degenerate basis"):
        space.discriminant(rows, pt("0"))
    assert time.perf_counter() - start < 2
    assert builds


def test_a_degenerate_update_ends_the_cli_with_exit_2(capsys, monkeypatch):
    """A combine that puts the third row in the span of the first two reaches
    the expansion's zero and ends `local-basis` with exit code 2."""
    builds = _cofactor_builds(monkeypatch)
    real = ShiftSpace.find_alpha

    def into_the_span(self, prefix, candidate, point):
        if len(prefix) == 2:
            return [Fraction(0), Fraction(0)], prefix[0] + prefix[1]
        return real(self, prefix, candidate, point)

    monkeypatch.setattr(ShiftSpace, "find_alpha", into_the_span)
    start = time.perf_counter()
    code = cli.main(["local-basis", "--operator", "(x+2)^2 + x*S^2 + (x+2)*S^3",
                     "--at", "0"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 2
    assert (code, captured.out) == (2, "")
    assert captured.err == "error: discriminant of a degenerate basis\n"
    assert builds


def test_the_cofactor_store_holds_one_key(monkeypatch):
    """A whole global run builds the cofactors of many (point, row) pairs,
    and each orbit's space holds only the last of them."""
    builds = _cofactor_builds(monkeypatch)
    spaces = []

    class Recorded(ShiftSpace):
        def __init__(self, analysis):
            super().__init__(analysis)
            spaces.append(self)

    monkeypatch.setattr(integral, "ShiftSpace", Recorded)
    global_integral_basis(op("(x+2)^2 + x*S^2 + (x+2)*S^3"), ZSpec({"Z": 10}))
    assert len(builds) > 10
    assert len(spaces) == 1
    key, cofactors = spaces[0]._cofactors
    assert cofactors is builds[-1]
    assert len(key) == 4 and len(cofactors) == 3


# -- find_alpha -----------------------------------------------------------------


def test_find_alpha_solves_the_recorded_combination(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    space = ShiftSpace(analysis)
    prefix = [el("1", 3)]
    candidate = el("x*S", 3)
    alphas, combo = space.find_alpha(prefix, candidate, pt("0"))
    assert alphas == [Fraction(-2)]
    assert combo == el("-2 + x*S", 3)


def test_find_alpha_rejects_dependent_candidates(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    space = ShiftSpace(analysis)
    with pytest.raises(PrecintError):
        space.find_alpha([el("1", 3)], el("1", 3), pt("0"))


def test_find_alpha_none_on_finished_basis(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    space = ShiftSpace(analysis)
    rows = _known_local().rows
    assert space.find_alpha(list(rows[:2]), rows[2], pt("0")) is None


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
    assert space.find_alpha(rows[:1], rows[1], pt("0")) is None


def test_toy_space_combines_at_a_rational_point():
    space = ToySpace((0, 0))
    basis = BasisMatrix((el("1", 2), el("1 + x*S", 2)))
    result = local_integral_basis(space, basis, pt("0"))
    assert [(u.kind, u.disc_before, u.disc_after)
            for u in result.provenance] == [("combine", 1, 0)]
    assert result.rows == (el("1", 2), el("S", 2))


def test_toy_space_combines_at_an_algebraic_point():
    space = ToySpace((0, 0))
    basis = BasisMatrix((el("1", 2), el("1 + (x^2-2)*S", 2)))
    result = local_integral_basis(space, basis, pt("root(x^2-2)"))
    assert [u.kind for u in result.provenance] == ["combine"]
    assert result.rows == (el("1", 2), el("2*x*S", 2))


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
    assert ShiftSpace(analysis).discriminant(BasisMatrix.standard(3).rows,
                                             pt("0")) == 1


def test_discriminant_shifts_by_one_under_row_scaling(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    rows = list(BasisMatrix.standard(3).rows)
    rows[1] = rows[1].scaled(RationalFunction.x())
    scaled = BasisMatrix(tuple(rows))
    assert ShiftSpace(analysis).discriminant(scaled.rows, pt("0")) == 2


def test_discriminant_of_known_local_basis_is_nonnegative(cubic, orbit_z):
    analysis = OrbitAnalysis.analyze(cubic, orbit_z)
    value = ShiftSpace(analysis).discriminant(_known_local().rows, pt("0"))
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


def test_global_basis_ignores_constant_and_common_factors(cubic):
    """The module depends only on the left ideal of the modulus: a constant
    or a common polynomial factor of the coefficients leaves the basis and
    its updates as they are.  The roots of a factor off the cubic's orbit
    add an orbit of no-op points to `processed`."""
    zspec = ZSpec({"Z": 2})
    expected = global_integral_basis(cubic, zspec)
    updates = [(u.kind, u.point) for u in expected.basis.provenance]
    for factor, extra in ((2, []), (Poly([-1, 1]), []),
                          (Poly([-2, 0, 1]), [("-2+x^2", (0, 1, 2, 3))])):
        run = global_integral_basis(cubic.scaled_left(factor), zspec)
        assert run.basis.rows == expected.basis.rows
        assert [(u.kind, u.point) for u in run.basis.provenance] == updates
        assert [(e.orbit.orbit_key(), e.points) for e in run.processed] == \
            extra + [("Z", (-2, -1, 0, 1, 2))]


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
