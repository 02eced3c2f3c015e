"""Local and global integral bases over an abstract valued-space interface.

The local routine runs on any space exposing a value function, a
constant-coefficient improvement solver, a uniformizer norm, and Galois
sums; two instantiations live here.  ShiftSpace is the recurrence case:
values come from q-valuations of anchored solutions, improvements from an
exact linear system on the order-zero q-coefficients.  ToySpace is the
weighted coordinate-minimum space used to exercise the generic algorithm.

Updates at a point z always go through the full conjugate set: rows are
rescaled by the minimal polynomial of z (not x - z) and recombined with
traces of alpha/(x - z), so output coordinates stay in Q(x) even when z is
algebraic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import _linalg
from .errors import IterationCapError, MissingRightBoundError, PrecintError
from .fields import (
    INFINITY,
    AlgebraicPoint,
    NFElem,
    Poly,
    RationalFunction,
    Valuation,
    galois_norm_uniformizer,
    galois_trace_sum,
    nu_at_factor,
)
from .ore import OreOperator, QuotientElement, apply_element_all
from .qvalues import nu_q, q_coefficient
from .valuation import OrbitAnalysis, ZSpec, detect_orbits, val_at, worklist_points

ITERATION_CAP_ENV = "PRECINT_MAX_ITER"
_CAP_MARGIN = 4


@dataclass(frozen=True)
class UpdateRecord:
    """One basis update: a uniformizer-power rescale or an alpha-combination."""

    kind: str  # "normalize" or "combine"
    row: int  # 1-based position in the basis
    point: str
    exponent: int = 0
    alphas: Tuple = ()
    disc_before: int = 0
    disc_after: int = 0


@dataclass(frozen=True)
class BasisMatrix:
    """A candidate basis of the quotient module, with its update history."""

    rows: Tuple[QuotientElement, ...]
    provenance: Tuple[UpdateRecord, ...] = ()

    @staticmethod
    def standard(r: int) -> "BasisMatrix":
        return BasisMatrix(tuple(QuotientElement.standard(r, i) for i in range(r)))

    @property
    def dimension(self) -> int:
        return len(self.rows)

    def coord_matrix(self) -> List[List[RationalFunction]]:
        return [list(row.coords) for row in self.rows]

    def updates_at(self, point_key: str) -> Tuple[UpdateRecord, ...]:
        return tuple(rec for rec in self.provenance if rec.point == point_key)


# ---------------------------------------------------------------------------
# The shift instantiation
# ---------------------------------------------------------------------------


class ShiftSpace:
    """Valued-space interface for the quotient module of a shift operator,
    restricted to one orbit."""

    def __init__(self, analysis: OrbitAnalysis):
        self.analysis = analysis

    @property
    def dimension(self) -> int:
        return self.analysis.order

    def val(self, row: QuotientElement, point: AlgebraicPoint) -> Valuation:
        return val_at(row, point, self.analysis)

    def uniformizer_norm(self, point: AlgebraicPoint) -> Poly:
        return galois_norm_uniformizer(point)

    def galois_sum(self, alpha, point: AlgebraicPoint) -> RationalFunction:
        return galois_trace_sum(alpha, point)

    def constants_one(self, point: AlgebraicPoint):
        return Fraction(1)

    def _q0_vector(self, row: QuotientElement, point: AlgebraicPoint) -> List:
        values = apply_element_all(row, self.analysis.basis, point.offset)
        out = []
        for v in values:
            if nu_q(v) < 0:
                raise PrecintError("order-zero extraction on an element of negative value")
            out.append(q_coefficient(v, 0))
        return out

    def find_alpha(self, prefix: Sequence[QuotientElement],
                   candidate: QuotientElement,
                   point: AlgebraicPoint) -> Optional[List]:
        """Constants making the prefixed combination have positive value.

        One linear condition per anchored solution: the order-zero
        q-coefficient of the combination evaluated at the point must vanish.
        Inputs of value >= 0 have no lower-order terms, so this single layer
        of conditions is exactly the improvement condition; the enclosing
        while loop supplies repetition.
        """
        for row in prefix:
            if self.val(row, point) < 0:
                raise PrecintError("prefix element is not integral at the point")
        if self.val(candidate, point) < 0:
            raise PrecintError("candidate must have nonnegative value")
        cols = [self._q0_vector(row, point) for row in prefix]
        rhs_vec = self._q0_vector(candidate, point)
        r = self.dimension
        matrix = [[cols[i][j] for i in range(len(prefix))] for j in range(r)]
        rhs = [-rhs_vec[j] for j in range(r)]
        solution = _linalg.solve_with_free_zero(matrix, rhs) if prefix else (
            [] if all(v == 0 for v in rhs_vec) else None
        )
        if solution is None:
            return None
        combo = candidate
        for alpha, row in zip(solution, prefix):
            combo = combo + row.scaled(RationalFunction.constant(alpha))
        if combo.is_zero:
            raise PrecintError(
                "candidate lies in the span of the earlier basis elements"
            )
        return list(solution)

    def discriminant(self, rows: Sequence[QuotientElement],
                     point: AlgebraicPoint) -> int:
        """q-valuation of the determinant of the solution-evaluation matrix."""
        matrix = [apply_element_all(row, self.analysis.basis, point.offset)
                  for row in rows]
        det = _linalg.determinant(matrix)
        v = nu_q(det)
        if v is INFINITY:
            raise PrecintError("discriminant of a degenerate basis")
        return v


# ---------------------------------------------------------------------------
# The weighted toy instantiation
# ---------------------------------------------------------------------------


class ToySpace:
    """A finite-dimensional space with val(sum a_i B_i) = min(w_i + nu(a_i))
    against its distinguished basis; the standard example of a value
    function on coordinates."""

    def __init__(self, weights: Sequence[int]):
        self.weights = tuple(int(w) for w in weights)

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def val(self, row: QuotientElement, point: AlgebraicPoint) -> Valuation:
        norm = self.uniformizer_norm(point)
        best = INFINITY
        for w, c in zip(self.weights, row.coords):
            v = w + nu_at_factor(c, norm)
            if v < best:
                best = v
        return best

    def uniformizer_norm(self, point: AlgebraicPoint) -> Poly:
        return galois_norm_uniformizer(point)

    def galois_sum(self, alpha, point: AlgebraicPoint) -> RationalFunction:
        return galois_trace_sum(alpha, point)

    def constants_one(self, point: AlgebraicPoint):
        return Fraction(1)

    def _leading_coeff(self, f: RationalFunction, order: int,
                       point: AlgebraicPoint):
        if f.is_zero:
            return Fraction(0)
        norm = self.uniformizer_norm(point)
        g = f * RationalFunction(norm) ** (-order)
        if nu_at_factor(g, norm) < 0:
            raise PrecintError("element has a pole deeper than its weight allows")
        z = point.value()
        return g.num.eval(z) / g.den.eval(z)

    def find_alpha(self, prefix: Sequence[QuotientElement],
                   candidate: QuotientElement,
                   point: AlgebraicPoint) -> Optional[List]:
        for row in prefix:
            if self.val(row, point) < 0:
                raise PrecintError("prefix element is not integral at the point")
        if self.val(candidate, point) < 0:
            raise PrecintError("candidate must have nonnegative value")
        matrix = []
        rhs = []
        rhs_raw = []
        for c in range(self.dimension):
            order = -self.weights[c]
            matrix.append([self._leading_coeff(row.coords[c], order, point)
                           for row in prefix])
            lead = self._leading_coeff(candidate.coords[c], order, point)
            rhs.append(-lead)
            rhs_raw.append(lead)
        solution = _linalg.solve_with_free_zero(matrix, rhs) if prefix else (
            [] if all(v == 0 for v in rhs_raw) else None
        )
        if solution is None:
            return None
        combo = candidate
        for alpha, row in zip(solution, prefix):
            combo = combo + row.scaled(RationalFunction.constant(alpha))
        if combo.is_zero:
            raise PrecintError(
                "candidate lies in the span of the earlier basis elements"
            )
        return list(solution)

    def discriminant(self, rows: Sequence[QuotientElement],
                     point: AlgebraicPoint) -> int:
        det = _linalg.determinant([list(row.coords) for row in rows])
        if det.is_zero:
            raise PrecintError("discriminant of a degenerate basis")
        return nu_at_factor(det, self.uniformizer_norm(point)) + sum(self.weights)


# ---------------------------------------------------------------------------
# The generic local algorithm
# ---------------------------------------------------------------------------


def iteration_cap_override() -> Optional[int]:
    """The cap set by PRECINT_MAX_ITER, or None when it is unset; the value
    must be an integer >= 0."""
    raw = os.environ.get(ITERATION_CAP_ENV)
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise PrecintError(f"{ITERATION_CAP_ENV} must be an integer >= 0, got {raw!r}")
    return cap


def _iteration_cap(space, rows: Sequence[QuotientElement],
                   point: AlgebraicPoint) -> Tuple[int, int]:
    """The cap on updates at the point, and the discriminant of `rows`.

    One determinant serves both: that of the rows rescaled to value zero,
    which bounds the number of combines.  Rescaling a row by norm^(-v)
    moves the discriminant by exactly -v, because the uniformizer norm has
    a simple zero at the point; the local loop checks this on every
    normalize it performs.
    """
    override = iteration_cap_override()
    norm = RationalFunction(space.uniformizer_norm(point))
    normalized = []
    shift = 0
    for row in rows:
        v = space.val(row, point)
        if v is INFINITY:
            raise PrecintError("basis contains the zero element")
        normalized.append(row if v == 0 else row.scaled(norm ** (-v)))
        shift += v
    disc = space.discriminant(normalized, point)
    cap = max(disc, 0) + _CAP_MARGIN if override is None else override
    return cap, disc + shift


def local_integral_basis(space, basis: BasisMatrix,
                         point: AlgebraicPoint) -> BasisMatrix:
    """One local pass: make the basis a module basis of the integral
    elements at the point, touching nothing at other points' valuations.

    Row d is first rescaled by a power of the uniformizer norm to value
    zero, then repeatedly replaced by the Galois-summed combination
    sum_i Tr(alpha_i/(x-z)) B_i as long as constants alpha exist that push
    the value of the combination positive.  Each such replacement lowers
    the discriminant by exactly one, which bounds the loop.

    The discriminant is carried from one update to the next: each update
    starts from the previous update's result and computes only its own
    result, on the freshly evaluated new row, so a point costs one
    determinant plus one per update.
    """
    rows = list(basis.rows)
    if len(rows) != space.dimension:
        raise PrecintError("basis size does not match the space dimension")
    point_key = str(point)
    log: List[UpdateRecord] = []
    cap, disc = _iteration_cap(space, rows, point)
    norm = RationalFunction(space.uniformizer_norm(point))
    iterations = 0
    for d in range(1, space.dimension + 1):
        row = rows[d - 1]
        v = space.val(row, point)
        if v != 0:
            rows[d - 1] = row.scaled(norm ** (-v))
            disc_before, disc = disc, space.discriminant(rows, point)
            if disc != disc_before - v:
                raise PrecintError(
                    f"discriminant moved from {disc_before} to {disc} when "
                    f"rescaling by a power {-v} of the uniformizer norm"
                )
            log.append(UpdateRecord("normalize", d, point_key, exponent=-v,
                                    disc_before=disc_before, disc_after=disc))
        while True:
            alphas = space.find_alpha(rows[:d - 1], rows[d - 1], point)
            if alphas is None:
                break
            one = space.constants_one(point)
            new_row = rows[d - 1].scaled(space.galois_sum(one, point))
            for alpha, prev in zip(alphas, rows[:d - 1]):
                if alpha == 0:
                    continue
                new_row = new_row + prev.scaled(space.galois_sum(alpha, point))
            if new_row.is_zero:
                raise PrecintError("basis update collapsed a row to zero")
            rows[d - 1] = new_row
            disc_before, disc = disc, space.discriminant(rows, point)
            if disc != disc_before - 1:
                raise PrecintError(
                    f"discriminant moved from {disc_before} to {disc}; "
                    "expected a drop of exactly 1"
                )
            if space.val(new_row, point) < 0:
                raise PrecintError("basis update produced a non-integral row")
            log.append(UpdateRecord("combine", d, point_key,
                                    alphas=tuple(alphas),
                                    disc_before=disc_before, disc_after=disc))
            iterations += 1
            if iterations > cap:
                raise IterationCapError(
                    f"exceeded {cap} updates at {point_key}; "
                    f"set {ITERATION_CAP_ENV} to raise the cap"
                )
    return BasisMatrix(tuple(rows), basis.provenance + tuple(log))


def find_alpha(space, prefix: Sequence[QuotientElement],
               candidate: QuotientElement,
               point: AlgebraicPoint) -> Optional[List]:
    """Constants alpha with val(sum alpha_i B_i + candidate) > 0, or None."""
    return space.find_alpha(prefix, candidate, point)


def discriminant(basis: BasisMatrix, point: AlgebraicPoint,
                 analysis: OrbitAnalysis) -> int:
    """The shift-case discriminant of a basis at a point of the orbit."""
    return ShiftSpace(analysis).discriminant(basis.rows, point)


# ---------------------------------------------------------------------------
# The global algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessedOrbit:
    orbit: AlgebraicPoint
    points: Tuple[int, ...]
    growths: Tuple[int, ...]
    analysis: OrbitAnalysis = field(repr=False, compare=False, default=None)


@dataclass(frozen=True)
class GlobalRun:
    basis: BasisMatrix
    processed: Tuple[ProcessedOrbit, ...]

    def all_points(self) -> List[AlgebraicPoint]:
        out = []
        for entry in self.processed:
            for n in entry.points:
                out.append(entry.orbit.shifted(n))
        return out


def global_integral_basis(modulus: OreOperator,
                          zspec: Optional[ZSpec] = None) -> GlobalRun:
    """A basis integral at every point of every orbit that the operator's
    extreme coefficients single out, processed orbit by orbit and point by
    point in ascending offset order.

    Orbits whose trailing and leading coefficients never vanish need no
    work: the standard basis is already integral there.  Orbits where some
    anchored solution has nonzero valuation growth must carry a right bound
    in the ZSpec, otherwise a MissingRightBoundError is raised.
    """
    modulus = modulus.normalized()
    if not modulus.is_valid_modulus:
        raise PrecintError("operator must have nonzero trailing and leading coefficients")
    zspec = zspec or ZSpec()
    basis = BasisMatrix.standard(modulus.order)
    processed: List[ProcessedOrbit] = []
    for orbit in detect_orbits(modulus):
        analysis = OrbitAnalysis.analyze(modulus, orbit)
        points = worklist_points(analysis, zspec)
        space = ShiftSpace(analysis)
        for n in points:
            basis = local_integral_basis(space, basis, orbit.shifted(n))
        processed.append(ProcessedOrbit(orbit, tuple(points), analysis.growths,
                                        analysis))
    return GlobalRun(basis, tuple(processed))
