"""Local and global integral bases over an abstract valued-space interface.

A valued space supplies four things: its `dimension`, a value function
`val(row, point)`, a residue map `residues(row, point)` that refuses a row
of negative value and whose vanishing on a row of value >= 0 means value
> 0, and a `discriminant(rows, point)`.  Everything else is generic: the
improvement step (`_find_alpha`) solves for constants that cancel the
residues, reading them as the integrality check of every row it takes,
and the local loop reads each row's value once per point, rescales by the
uniformizer norm and recombines with Galois traces, at most as many times
as the discriminant of the rows rescaled to value zero (an exact bound:
each combine takes one from it, and it ends >= 0).  Two instantiations
live here.  ShiftSpace is the recurrence case: values come from
q-valuations of anchored solutions, residues are the order-zero
q-coefficients of the element's action on them.  ToySpace is the weighted
coordinate-minimum space used to exercise the generic algorithm.

Updates at a point z always go through the full conjugate set: rows are
rescaled by the minimal polynomial of z (not x - z) and recombined with
traces of alpha/(x - z), so output coordinates stay in Q(x) even when z is
algebraic.  At a rational z the trace is the identity, and a combine divides
the combination that `_find_alpha` built by x - z.

The discriminant that bounds and checks the loop costs one elimination per
point.  Each update changes one row, so ShiftSpace reads the next one as
sum_j a_dj * C_j along that row: the cofactors C_j of the fixed rows are
built once per changed row, and an update costs r products (at the orders
in `_EXPANDED_ORDERS`; elsewhere each update is an elimination).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple

from . import _linalg
from .errors import PrecintError
from .fields import (
    INFINITY,
    AlgebraicPoint,
    RationalFunction,
    Valuation,
    galois_norm_uniformizer,
    galois_trace_sum,
    nu_at_factor,
)
from .ore import OreOperator, QuotientElement, apply_element_all
from .qvalues import ZERO, least_valuation, nu_q
from .valuation import OrbitAnalysis, detect_orbits, val_at, worklist_points

# The orders at which ShiftSpace expands an update's discriminant along the
# changed row.  Measured over every single-row update of global runs, one
# cofactor build plus k expansions against k eliminations for each row
# updated k times in a row, the expansion cost 0.27-0.70 of the
# eliminations at every order from 2 to 10, on all but one sample: order-7
# operators whose rows each changed once, at 1.29 (CHANGES.md).  A build
# takes r * 2^(r-1) - 2r products and holds up to C(r, r/2) minors, against
# (r-1)r(2r-1)/3 products for an elimination, so orders above 10, where
# nothing was measured, keep the elimination.  Order 1 has no fixed rows.
# Order 2 keeps it too: `bench/speed.py` fails a workload whose first round
# ends before its first probe at 20 ms (ROADMAP item 1), and the expansion
# takes about 0.6 ms off an `algebraic-orbits` round, whose first round
# read 20.0-20.6 ms on a fast day.
_EXPANDED_ORDERS = range(3, 11)


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


# ---------------------------------------------------------------------------
# The improvement step, shared by every space
# ---------------------------------------------------------------------------


def _find_alpha(space, prefix: Sequence[QuotientElement],
                candidate: QuotientElement,
                point: AlgebraicPoint
                ) -> Optional[Tuple[List, QuotientElement]]:
    """Constants alpha with val(sum alpha_i B_i + candidate) > 0, with that
    combination, or None.

    One linear condition per residue coordinate: the space's residue vector
    of the combination at the point must vanish.  `residues` refuses a row
    of negative value, so reading them is the integrality check of every
    prefix row and of the candidate.  Inputs of value >= 0 have no terms
    below the residue layer, so this single layer of conditions is exactly
    the improvement condition; the enclosing while loop of the local
    algorithm supplies repetition.
    """
    cols = [space.residues(row, point) for row in prefix]
    rhs = [-c for c in space.residues(candidate, point)]
    matrix = [[col[j] for col in cols] for j in range(len(rhs))]
    solution = _linalg.solve_with_free_zero(matrix, rhs)
    if solution is None:
        return None
    combo = candidate
    for alpha, row in zip(solution, prefix):
        combo = combo + row.scaled(RationalFunction.constant(alpha))
    if combo.is_zero:
        raise PrecintError(
            "candidate lies in the span of the earlier basis elements"
        )
    return solution, combo


# ---------------------------------------------------------------------------
# The shift instantiation
# ---------------------------------------------------------------------------


class ShiftSpace:
    """Valued-space interface for the quotient module of a shift operator,
    restricted to one orbit."""

    find_alpha = _find_alpha

    def __init__(self, analysis: OrbitAnalysis):
        self.analysis = analysis
        self._last: Optional[Tuple[int, Tuple[QuotientElement, ...]]] = None
        self._cofactors: Optional[Tuple[tuple, List]] = None

    @property
    def dimension(self) -> int:
        return self.analysis.order

    def val(self, row: QuotientElement, point: AlgebraicPoint) -> Valuation:
        return val_at(row, point, self.analysis)

    def residues(self, row: QuotientElement, point: AlgebraicPoint) -> List:
        """The order-zero q-coefficient of the row's action on each anchored
        solution at the point; refuses a point off the analyzed orbit, as
        `val` does, and a row of negative value.  An entry O(q^P) reads as
        0 when P >= 1; only P <= 0 asks for double precision."""
        if not point.same_orbit(self.analysis.orbit):
            raise PrecintError("point does not lie in the analyzed orbit")
        basis = self.analysis.basis

        def compute() -> List:
            action = apply_element_all(row, basis, point.offset)
            if least_valuation(action, 0) < 0:
                raise PrecintError("order-zero extraction on an element of negative value")
            return [v.coefficient(0) for v in action]

        return basis.with_enough_precision(compute)

    def discriminant(self, rows: Sequence[QuotientElement],
                     point: AlgebraicPoint) -> int:
        """q-valuation of the determinant of the solution-evaluation matrix;
        a determinant that is exactly zero means the rows are dependent.

        When exactly one row differs from the previous call's at the same
        point and the order is in `_EXPANDED_ORDERS`, the determinant is
        sum_j a_dj * C_j, with a_dj the action of the changed row d and
        C_j the cofactors of the other rows, built once while those rows
        stay fixed: r products per update.  Otherwise it is read from the
        pivots of an elimination over q-series: at a point's first call,
        when several rows changed, and at the other orders."""
        basis = self.analysis.basis
        n = point.offset
        rows = tuple(rows)
        last, self._last = self._last, (n, rows)
        changed = []
        if last is not None and last[0] == n and len(rows) in _EXPANDED_ORDERS:
            changed = [d for d, (a, b) in enumerate(zip(rows, last[1]))
                       if a is not b]
        if len(changed) == 1:
            d = changed[0]
            v = basis.with_enough_precision(
                lambda: nu_q(self._expand(rows, d, n)))
        else:
            v = basis.with_enough_precision(lambda: _linalg.determinant(
                [apply_element_all(row, basis, n) for row in rows], nu_q))
        if v is INFINITY:
            raise PrecintError("discriminant of a degenerate basis")
        return v

    def _expand(self, rows: Tuple[QuotientElement, ...], d: int, n: int):
        """The determinant of the rows' actions at offset n, expanded along
        row d, with the cofactors of the other rows kept under the key
        (n, precision, d, other rows); only the current key is held."""
        basis = self.analysis.basis
        fixed = rows[:d] + rows[d + 1:]
        key = (n, basis.precision, d, fixed)
        if self._cofactors is None or self._cofactors[0] != key:
            self._cofactors = (key, _linalg.cofactors(
                [apply_element_all(row, basis, n) for row in fixed], d))
        det = ZERO
        for a, c in zip(apply_element_all(rows[d], basis, n), self._cofactors[1]):
            det = det + a * c
        return det


# ---------------------------------------------------------------------------
# The weighted toy instantiation
# ---------------------------------------------------------------------------


class ToySpace:
    """A finite-dimensional space with val(sum a_i B_i) = min(w_i + nu(a_i))
    against its distinguished basis; the standard example of a value
    function on coordinates."""

    find_alpha = _find_alpha

    def __init__(self, weights: Sequence[int]):
        self.weights = tuple(int(w) for w in weights)

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def val(self, row: QuotientElement, point: AlgebraicPoint) -> Valuation:
        norm = galois_norm_uniformizer(point)
        best = INFINITY
        for w, c in zip(self.weights, row.coords):
            v = w + nu_at_factor(c, norm)
            if v < best:
                best = v
        return best

    def residues(self, row: QuotientElement, point: AlgebraicPoint) -> List:
        """The leading coefficient of each coordinate at the order its weight
        allows: that of norm^(-w_c) in the c-th coordinate."""
        norm = galois_norm_uniformizer(point)
        z = point.value()
        out = []
        for w, f in zip(self.weights, row.coords):
            if f.is_zero:
                out.append(Fraction(0))
                continue
            g = f * RationalFunction(norm) ** w
            if nu_at_factor(g, norm) < 0:
                raise PrecintError("element has a pole deeper than its weight allows")
            out.append(g.num.eval(z) / g.den.eval(z))
        return out

    def discriminant(self, rows: Sequence[QuotientElement],
                     point: AlgebraicPoint) -> int:
        norm = galois_norm_uniformizer(point)
        v = _linalg.determinant([list(row.coords) for row in rows],
                                lambda f: nu_at_factor(f, norm))
        if v is INFINITY:
            raise PrecintError("discriminant of a degenerate basis")
        return v + sum(self.weights)


# ---------------------------------------------------------------------------
# The generic local algorithm
# ---------------------------------------------------------------------------


def local_integral_basis(space, basis: BasisMatrix,
                         point: AlgebraicPoint) -> BasisMatrix:
    """One local pass: make the basis a module basis of the integral
    elements at the point, touching nothing at other points' valuations.

    Each row's value is read once, before any update: row d is untouched
    until its turn, when it is rescaled by a power of the uniformizer norm
    to value zero, then repeatedly replaced by the Galois-summed
    combination sum_i Tr(alpha_i/(x-z)) B_i as long as constants alpha
    exist that push the value of the combination positive.  At a rational
    point that sum is the combination itself divided by x - z.

    The cap on combines is exact.  Rescaling a row of value v moves the
    discriminant by exactly -v (the uniformizer norm has a simple zero at
    the point), so `disc - sum(v)` is the discriminant of the rows at value
    zero; each combine takes exactly one from it, and rows of value >= 0
    have a discriminant >= 0.  Every update checks its move of the
    discriminant, and every combine the value of its new row.

    The discriminant is carried from one update to the next: each update
    starts from the previous update's result and computes only its own
    result, on the freshly evaluated new row, so a point costs one
    determinant plus one per update.  In ShiftSpace the point's first is
    an elimination, and at the orders in `_EXPANDED_ORDERS` each update's
    is an expansion along the changed row: one cofactor build per row that
    changes, then r products per update.
    """
    rows = list(basis.rows)
    if len(rows) != space.dimension:
        raise PrecintError("basis size does not match the space dimension")
    point_key = str(point)
    log: List[UpdateRecord] = []
    values = []
    for row in rows:
        v = space.val(row, point)
        if v is INFINITY:
            raise PrecintError("basis contains the zero element")
        values.append(v)
    disc = space.discriminant(rows, point)
    cap = disc - sum(values)
    norm = RationalFunction(galois_norm_uniformizer(point))
    iterations = 0
    for d, v in enumerate(values, 1):
        if v != 0:
            rows[d - 1] = rows[d - 1].scaled(norm ** (-v))
            disc_before, disc = disc, space.discriminant(rows, point)
            if disc != disc_before - v:
                raise PrecintError(
                    f"discriminant moved from {disc_before} to {disc} when "
                    f"rescaling by a power {-v} of the uniformizer norm"
                )
            log.append(UpdateRecord("normalize", d, point_key, exponent=-v,
                                    disc_before=disc_before, disc_after=disc))
        while True:
            found = space.find_alpha(rows[:d - 1], rows[d - 1], point)
            if found is None:
                break
            alphas, combo = found
            unit = galois_trace_sum(Fraction(1), point)
            if point.is_rational:
                new_row = combo.scaled(unit)
            else:
                new_row = rows[d - 1].scaled(unit)
                for alpha, prev in zip(alphas, rows[:d - 1]):
                    if alpha == 0:
                        continue
                    new_row = new_row + prev.scaled(galois_trace_sum(alpha, point))
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
                raise PrecintError(
                    f"exceeded the discriminant bound of {cap} updates at "
                    f"{point_key}"
                )
    return BasisMatrix(tuple(rows), basis.provenance + tuple(log))


# ---------------------------------------------------------------------------
# The global algorithm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProcessedOrbit:
    analysis: OrbitAnalysis
    points: Tuple[int, ...]


@dataclass(frozen=True)
class GlobalRun:
    basis: BasisMatrix
    processed: Tuple[ProcessedOrbit, ...]


def global_integral_basis(modulus: OreOperator,
                          bounds: Optional[Mapping[str, int]] = None) -> GlobalRun:
    """A basis integral at every point of every orbit that the operator's
    extreme coefficients single out, processed orbit by orbit, by
    descending degree, and point by point in ascending offset order.

    The order of the orbits matters: a combine at a point of norm N
    multiplies the replaced row by N'(x)/N(x), and N' vanishes only at
    points of lower degree, which a later pass treats (see
    `valuation.detect_orbits`).

    Orbits whose trailing and leading coefficients never vanish need no
    work: the standard basis is already integral there.  Orbits where some
    anchored solution has nonzero valuation growth must carry a right bound
    in `bounds`, under the orbit's key, otherwise a MissingRightBoundError
    is raised.

    The modulus is used as passed; normalize it first, with
    `OreOperator.normalized`, to get the CLI's output.  Coefficients with
    denominators raise PrecintError.
    Scaling by a constant changes nothing.  A common polynomial factor of
    the coefficients leaves the module and the basis unchanged, but its
    roots join the singular offsets, so the extra points are processed as
    no-ops and appear in `processed`.
    """
    if not modulus.is_valid_modulus:
        raise PrecintError("operator must have nonzero trailing and leading coefficients")
    basis = BasisMatrix.standard(modulus.order)
    processed: List[ProcessedOrbit] = []
    for orbit in detect_orbits(modulus):
        analysis = OrbitAnalysis.analyze(modulus, orbit)
        points = worklist_points(analysis, bounds)
        space = ShiftSpace(analysis)
        for n in points:
            basis = local_integral_basis(space, basis, orbit.shifted(n))
        processed.append(ProcessedOrbit(analysis, tuple(points)))
    return GlobalRun(basis, tuple(processed))
