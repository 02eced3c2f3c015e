"""The shift-case value function, orbit singularity analysis, valuation
growth, and construction of the finite per-orbit worklist.

All quantities live on one orbit rho + Z.  Offsets are plain integers; the
identity-window solution basis is anchored left of every vanishing offset
of the trailing and leading coefficients, which pins the left liminf of
every solution at zero and makes the value of a residue class B at a point
the minimum q-valuation of (B . b_j) there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from .errors import MissingRightBoundError, PrecintError
from .fields import INFINITY, AlgebraicPoint, Valuation, factor
from .ore import (
    OreOperator,
    QuotientElement,
    SolutionBasis,
    apply_element_all,
    root_offsets,
)
from .qvalues import nu_q

# The most offsets one orbit's worklist may hold.  The work per point grows
# with the distance from the anchor (on a shared 2-vCPU VM, the cubic of the
# README takes about 0.15 s for 23 points and 1.7 s for 43, and
# x*(x-99) + S + S^2 about 1.1 s for 100); the widest case of the benchmark
# corpus has 18 points.
MAX_WORKLIST_POINTS = 100


def singular_points(modulus: OreOperator,
                    orbit: AlgebraicPoint) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Offsets where leftward extension can drop the valuation (roots of the
    trailing coefficient) and where rightward extension can (roots of the
    leading coefficient, shifted by the order)."""
    ell = modulus.polynomial_coeffs()
    r = modulus.order
    left = root_offsets(ell[0], orbit)
    right = tuple(sorted(n + r for n in root_offsets(ell[r], orbit)))
    return left, right


@dataclass(frozen=True)
class OrbitAnalysis:
    """Everything needed to evaluate the value function on one orbit, and
    the orbit's extent: from `left_edge`, the first root of either extreme
    coefficient, to `right_edge`, the last singular offset (both None on an
    orbit with no root)."""

    orbit: AlgebraicPoint
    singular_left: Tuple[int, ...]
    singular_right: Tuple[int, ...]
    basis: SolutionBasis
    growths: Tuple[int, ...]
    left_edge: Optional[int]
    right_edge: Optional[int]

    @staticmethod
    def analyze(modulus: OreOperator, orbit: AlgebraicPoint,
                anchor: Optional[int] = None) -> "OrbitAnalysis":
        """Solutions, singular offsets and growths of the modulus as passed.

        The anchor defaults to the left edge, or to 0 on an orbit with no
        root (`default_anchor`).  A modulus with denominators in its
        coefficients raises PrecintError; normalize it first.  A constant
        factor changes nothing; a common polynomial factor leaves the
        values unchanged but adds its roots to the singular offsets.
        """
        if not modulus.is_valid_modulus:
            raise PrecintError("operator must have nonzero trailing and leading coefficients")
        orbit = orbit.orbit()
        left, right = singular_points(modulus, orbit)
        left_edge = min(left + tuple(n - modulus.order for n in right), default=None)
        right_edge = max(left + right, default=None)
        if anchor is None:
            anchor = left_edge or 0
        elif left_edge is not None and anchor > left_edge:
            raise PrecintError(
                f"anchor {anchor} is right of the default {left_edge}; the value "
                "function requires an anchor left of every coefficient root"
            )
        basis = SolutionBasis(modulus, orbit, anchor)
        growths = _compute_growths(basis, right_edge)
        return OrbitAnalysis(orbit, left, right, basis, growths, left_edge, right_edge)

    @property
    def order(self) -> int:
        return self.basis.order


def _window_min(basis: SolutionBasis, j: int, start: int, length: int) -> Valuation:
    best = INFINITY
    for n in range(start, start + length):
        v = basis.valuation(j, n)
        if v < best:
            best = v
    return best


def _compute_growths(basis: SolutionBasis,
                     edge: Optional[int]) -> Tuple[int, ...]:
    r = basis.order
    if edge is None:
        return (0,) * r
    growths = []
    for j in range(1, r + 1):
        # the left liminf of an anchored solution is 0 by construction
        rightmost = _window_min(basis, j, edge + 1, r)
        if rightmost is INFINITY:
            raise PrecintError("solution vanishes on a full window")
        growths.append(rightmost)
    return tuple(growths)


def val_at(element: QuotientElement, point: AlgebraicPoint,
           analysis: OrbitAnalysis) -> Valuation:
    """Value of a residue class at a point of the analyzed orbit: the
    minimum over the anchored solutions of nu_q((B . b_j)(point)), each
    read exactly (a series zero to working precision is recomputed at
    double precision, never read as a large valuation)."""
    if not point.same_orbit(analysis.orbit):
        raise PrecintError("point does not lie in the analyzed orbit")
    if element.is_zero:
        return INFINITY
    basis = analysis.basis
    return basis.with_enough_precision(lambda: min(
        nu_q(v) for v in apply_element_all(element, basis, point.offset)))


def detect_orbits(modulus: OreOperator) -> Tuple[AlgebraicPoint, ...]:
    """Orbits that contain a root of the trailing or leading coefficient,
    by descending degree, then by minimal polynomial.

    The order matters to `global_integral_basis`: a combine at a point of
    norm N (over Q) multiplies the replaced row by N'(x)/N(x), and N', of
    degree d - 1, vanishes only at points of lower degree.  Processing
    orbits of higher degree first, no later pass can undo the work at a
    point of an earlier one (at `root(x^2-2)+1`, N' = 2x - 2 vanishes at
    the integer 1)."""
    ell = modulus.polynomial_coeffs()
    orbits = {AlgebraicPoint(fac, 0).orbit()
              for poly in (ell[0], ell[-1]) if poly.degree >= 1
              for fac, _ in factor(poly)}
    return tuple(sorted(orbits, key=lambda o: (-o.degree, o.min_poly.coeffs)))


def worklist_points(analysis: OrbitAnalysis,
                    bounds: Optional[Mapping[str, int]] = None) -> List[int]:
    """The contiguous range of offsets to process in one orbit.

    Runs from the orbit's left edge up to its right edge (all growths
    zero) or the right bound that `bounds` gives the orbit's key (some
    growth nonzero; mandatory then).  Points inside the range that need
    no update are processed as no-ops.  A range of more than
    MAX_WORKLIST_POINTS offsets is refused before it is built.
    """
    if analysis.left_edge is None:
        return []
    lo, hi = analysis.left_edge, analysis.right_edge
    key = analysis.orbit.orbit_key()
    bound = (bounds or {}).get(key)
    if any(g != 0 for g in analysis.growths):
        if bound is None:
            raise MissingRightBoundError(key, analysis.growths)
        hi = bound
    elif bound is not None:
        hi = min(hi, bound)
    if hi - lo + 1 > MAX_WORKLIST_POINTS:
        raise PrecintError(
            f"orbit {key}: the worklist from {lo} to {hi} has {hi - lo + 1} "
            f"offsets, more than the limit of {MAX_WORKLIST_POINTS}"
        )
    return list(range(lo, hi + 1))

