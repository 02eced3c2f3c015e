"""The shift Ore algebra, its quotient modules, and anchored solution bases.

Operators live in C(x)[S] with the commutation rule S*x = (x+1)*S.  For a
fixed operator L of order r, residue classes modulo L are coordinate
vectors against the standard basis 1, S, ..., S^(r-1).  Solutions of L are
sequences on an orbit rho + Z with values in K(q), obtained by evaluating
coefficients at z + q; anchoring the initial window left of every
coefficient root makes every division hit a nonzero polynomial in q.  The
table of these values is exact and fraction-free: a polynomial numerator
in q per solution and position over one known denominator per position,
the product of the extreme coefficients the recurrence divided by to reach
it.  The action of an element on it is a truncated q-series (see qvalues).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional, Tuple, TypeVar

from .errors import PrecintError
from .fields import (
    INFINITY,
    AlgebraicPoint,
    Poly,
    RationalFunction,
    Valuation,
    _orbit_normalize,
    factor,
    poly_gcd,
    power,
)
from .qvalues import (
    PrecisionLoss,
    QSeries,
    ZERO,
    fraction_series,
    shifted_series,
)

T = TypeVar("T")

# Coefficients each table value and row coordinate is expanded to at first;
# a solution basis doubles it whenever a read needs more (see qvalues).
START_PRECISION = 4

# The most positions a solution table grows beyond either end of its
# identity window.  A global basis anchors the table at its orbit's left
# edge and refuses a worklist of more than 100 offsets
# (valuation.MAX_WORKLIST_POINTS), so the element action at its last point
# reads at most 99 positions right of the window; the growths read the r
# positions right of the last singular offset, at most 100 when that offset
# ends the worklist.  (An orbit whose singular offsets lie more than 100
# apart fits that worklist only under a nearer right bound, yet its growths
# still read past its last singular offset; it is refused here.)  Every
# numerator step costs more than the last, since its degree grows with the
# distance, so far reads are refused at once rather than left to run for
# minutes.
MAX_TABLE_REACH = 100


def _as_rf(c) -> RationalFunction:
    f = RationalFunction._coerce(c)
    if f is NotImplemented:
        raise TypeError(f"cannot use {type(c).__name__} as an operator coefficient")
    return f


class OreOperator:
    """An element of C(x)[S]; coefficient i multiplies S^i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_rf(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("OreOperator is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def constant(c) -> "OreOperator":
        return OreOperator((c,))

    @staticmethod
    def shift() -> "OreOperator":
        return OreOperator((0, 1))

    # -- queries --------------------------------------------------------------

    @property
    def order(self) -> int:
        """Order (degree in S); -1 for the zero operator."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> RationalFunction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RationalFunction.zero()

    def __eq__(self, other):
        if isinstance(other, OreOperator):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("OreOperator", self.coeffs))

    def __repr__(self):
        from .exprs import operator_str

        return f"OreOperator[{operator_str(self)}]"

    # -- ring structure --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OreOperator):
            other = OreOperator.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return OreOperator(out)

    __radd__ = __add__

    def __neg__(self):
        return OreOperator(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, OreOperator):
            other = OreOperator.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return OreOperator.constant(other) + (-self)

    def __mul__(self, other):
        """The skew product: S^i * a(x) = a(x+i) * S^i."""
        if not isinstance(other, OreOperator):
            other = OreOperator.constant(other)
        if self.is_zero or other.is_zero:
            return OreOperator(())
        out = [RationalFunction.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero:
                    continue
                out[i + j] = out[i + j] + a * b.shift(i)
        return OreOperator(out)

    def __rmul__(self, other):
        return OreOperator.constant(other) * self

    def scaled_left(self, c) -> "OreOperator":
        """Multiply by an order-zero factor on the left."""
        c = _as_rf(c)
        return OreOperator(tuple(c * f for f in self.coeffs))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of an operator")
        return power(self, n, OreOperator.constant(1))

    # -- normalization ----------------------------------------------------------

    def normalized(self) -> "OreOperator":
        """Clear denominators and content so all coefficients are polynomials
        over Q with gcd 1 and the leading one has a positive leading
        coefficient."""
        if self.is_zero:
            return self
        common_den = Poly.one()
        for c in self.coeffs:
            common_den = common_den * poly_gcd(common_den, c.den)[2]
        nums = []
        for c in self.coeffs:
            nums.append(c.num * (common_den // c.den))
        g = Poly.zero()
        for p in nums:
            g = poly_gcd(g, p)[0]
        if g.degree > 0:
            nums = [p // g for p in nums]
        # divide by rational content, fix the sign of the leading coefficient;
        # every Poly is content-reduced, so the content of nums/den is
        # gcd(nums)/den in lowest terms, and of them all gcd/lcm
        content = Fraction(math.gcd(*(c for p in nums for c in p.nums)),
                           math.lcm(*(p.den for p in nums)))
        if content == 0:
            raise PrecintError("zero operator cannot be normalized")
        if nums[-1].leading < 0:
            content = -content
        inv = 1 / content
        return OreOperator(tuple(RationalFunction(p * inv) for p in nums))

    def polynomial_coeffs(self) -> Tuple[Poly, ...]:
        out = []
        for c in self.coeffs:
            if c.den != Poly.one():
                raise PrecintError("operator is not normalized")
            out.append(c.num)
        return tuple(out)

    @property
    def is_valid_modulus(self) -> bool:
        return self.order >= 1 and not self.coeffs[0].is_zero


class QuotientElement:
    """Coordinates of a residue class against the standard basis of
    C(x)[S]/<L>, for an operator of order len(coords)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable):
        object.__setattr__(self, "coords", tuple(_as_rf(c) for c in coords))

    def __setattr__(self, name, value):
        raise AttributeError("QuotientElement is immutable")

    @staticmethod
    def standard(r: int, i: int) -> "QuotientElement":
        return QuotientElement(
            tuple(RationalFunction.one() if k == i else RationalFunction.zero()
                  for k in range(r))
        )

    @staticmethod
    def zero(r: int) -> "QuotientElement":
        return QuotientElement((RationalFunction.zero(),) * r)

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def __eq__(self, other):
        if isinstance(other, QuotientElement):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self):
        return hash(("QuotientElement", self.coords))

    def __repr__(self):
        from .exprs import element_str

        return f"QuotientElement[{element_str(self.coords)}]"

    def __add__(self, other: "QuotientElement"):
        if len(self.coords) != len(other.coords):
            raise ValueError("dimension mismatch")
        return QuotientElement(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "QuotientElement"):
        return self + (-other)

    def __neg__(self):
        return QuotientElement(tuple(-c for c in self.coords))

    def scaled(self, f) -> "QuotientElement":
        f = _as_rf(f)
        return QuotientElement(tuple(f * c for c in self.coords))


def reduce_mod(a: OreOperator, modulus: OreOperator) -> QuotientElement:
    """Coordinates of the residue class of `a` modulo the left ideal of
    `modulus`, rewriting top powers of S through the shifted relation."""
    r = modulus.order
    if r < 1:
        raise PrecintError("modulus must have positive order")
    ell = list(modulus.coeffs)
    work = list(a.coeffs)
    while len(work) - 1 >= r:
        k = len(work) - 1
        c = work.pop()
        if c.is_zero:
            continue
        j = k - r
        scale = c / ell[r].shift(j)
        for i in range(r):
            work[j + i] = work[j + i] - scale * ell[i].shift(j)
    work += [RationalFunction.zero()] * (r - len(work))
    return QuotientElement(tuple(work))


# ---------------------------------------------------------------------------
# Solution bases
# ---------------------------------------------------------------------------


def root_offsets(p: Poly, orbit: AlgebraicPoint) -> Tuple[int, ...]:
    """Integer offsets n with p(rho + n) = 0, for rho the orbit root: the
    shifts of the factors of p whose normal form is the orbit's minimal
    polynomial, the rule by which `AlgebraicPoint` names a point."""
    if p.degree < 1:
        return ()
    offs = []
    for fac, _ in factor(p):
        # a factor of another degree has its roots on another orbit
        if fac.degree == orbit.degree:
            normal, shift = _orbit_normalize(fac)
            if normal == orbit.min_poly:
                offs.append(shift)
    return tuple(sorted(offs))


def default_anchor(modulus: OreOperator, orbit: AlgebraicPoint) -> int:
    """The leftmost offset at which the trailing or leading coefficient
    vanishes on the orbit; 0 when neither vanishes anywhere on it.
    `OrbitAnalysis.analyze` reads the same offset, the orbit's left edge,
    from the singular offsets it already holds.

    From this offset leftward every extension step divides by a q-unit, so
    the identity window propagates with q-valuation exactly zero and the
    left liminf of every anchored solution is 0.
    """
    ell = modulus.polynomial_coeffs()
    offs = root_offsets(ell[0], orbit) + root_offsets(ell[-1], orbit)
    return min(offs) if offs else 0


class SolutionBasis:
    """The r anchored solutions of a modulus on one orbit, extended lazily.

    Solution j takes the value delta_{i,j} at positions anchor + i - 1 for
    i = 1..r; values elsewhere are filled on demand, one position for all r
    solutions at a time, by solving the deformed recurrence for the unknown
    end.  The anchor defaults to `default_anchor(modulus, orbit)`.  The
    modulus is used as passed and must have polynomial coefficients; a
    common polynomial factor cancels from every row of the deformed
    recurrence, so it leaves the q-orders unchanged, though its roots can
    move the default anchor left.

    The table is fraction-free and exact: `_values[(j, p)]` holds a
    numerator N in K[q] over a denominator `_dens[p]` in K[q] shared by all
    solutions.  D is 1 on the identity window and gains one extreme
    coefficient per step away from it, l_r(z+w+q) for each step right and
    l_0(z+p+q) for each step left, so a new numerator is the recurrence sum
    brought to the new denominator by Horner's rule over those steps: no
    division and no gcd.  N/D need not be in lowest terms.  The q-order
    (`valuation`) and the series (`series`) read N and D directly; only
    `value` builds the canonical rational function, once per position.

    Series memos sit beside the table: `series(j, n)` expands a value once
    per working precision, and the memo of `apply_element_all` is keyed by
    (element, offset) with the immutable, hashable QuotientElement.  They
    live as long as this object, that is as long as the one analysis that
    owns it, and no other analysis shares them; the action memo holds one
    r-tuple per distinct (row, offset) pair asked for.  `double_precision`
    empties both series memos.  All memos belong to a single analysis
    context and are not safe for unsynchronized concurrent writers.

    The table grows at most MAX_TABLE_REACH positions beyond either end of
    its identity window; a read past that raises PrecintError.
    """

    def __init__(self, modulus: OreOperator, orbit: AlgebraicPoint,
                 anchor: Optional[int] = None):
        if not modulus.is_valid_modulus:
            raise PrecintError("modulus must have nonzero trailing and leading coefficients")
        self.modulus = modulus
        self.orbit = orbit.orbit()
        self.order = modulus.order
        self.anchor = default_anchor(modulus, self.orbit) if anchor is None else anchor
        self._root = self.orbit.value()  # Fraction or number-field generator
        self._ell = modulus.polynomial_coeffs()
        self._ell_at: Dict[Tuple[int, int], Poly] = {}
        self._values: Dict[Tuple[int, int], Poly] = {}
        self._dens: Dict[int, Poly] = {}
        self._canonical: Dict[Tuple[int, int], RationalFunction] = {}
        self._series: Dict[Tuple[int, int], QSeries] = {}
        self._actions: Dict[Tuple[QuotientElement, int], Tuple[QSeries, ...]] = {}
        self.precision = START_PRECISION
        self._lo = self.anchor
        self._hi = self.anchor + self.order - 1
        one, zero = Poly.one(), Poly.zero()
        for i in range(1, self.order + 1):
            self._dens[self.anchor + i - 1] = one
            for j in range(1, self.order + 1):
                self._values[(j, self.anchor + i - 1)] = one if i == j else zero

    def _ell_eval(self, i: int, w: int) -> Poly:
        """l_i(z + w + q) as a polynomial in q."""
        key = (i, w)
        cached = self._ell_at.get(key)
        if cached is None:
            cached = self._ell_at[key] = self._ell[i].shift(self._root + w)
        return cached

    def _step(self, p: int) -> Optional[Poly]:
        """The factor D[p] has beyond D of its neighbour toward the identity
        window; None inside the window."""
        r = self.order
        if p >= self.anchor + r:
            return self._ell_eval(r, p - r)
        if p < self.anchor:
            return self._ell_eval(0, p)
        return None

    def _fill(self, p: int) -> None:
        """N[j, p] for every solution j, and D[p], at the position just past
        either end of the table, which it extends.  The recurrence window
        of p is summed from its far end in, brought to D[p] by Horner's
        rule over `_step`."""
        r = self.order
        up = p > self._hi
        w = p - r if up else p
        far, *near = range(w, p) if up else range(p + r, p, -1)
        vals = self._values
        ell = self._ell_eval(far - w, w)
        accs = [ell * vals[(j, far)] for j in range(1, r + 1)]
        for t in near:
            step, ell = self._step(t), self._ell_eval(t - w, w)
            accs = [(acc if step is None else acc * step) + ell * vals[(j, t)]
                    for j, acc in enumerate(accs, 1)]
        for j, acc in enumerate(accs, 1):
            vals[(j, p)] = -acc
        self._dens[p] = self._dens[p - 1 if up else p + 1] * self._step(p)
        if up:
            self._hi = p
        else:
            self._lo = p

    def _numerator(self, j: int, n: int) -> Poly:
        """N[j, n], growing the table of all r solutions out to position n."""
        if not 1 <= j <= self.order:
            raise ValueError(f"solution index {j} out of range 1..{self.order}")
        last = self.anchor + self.order - 1
        if not self.anchor - MAX_TABLE_REACH <= n <= last + MAX_TABLE_REACH:
            raise PrecintError(
                f"position {n} lies more than {MAX_TABLE_REACH} offsets outside "
                f"the identity window {self.anchor}..{last} of the solution "
                f"table anchored at {self.anchor}"
            )
        while self._hi < n:
            self._fill(self._hi + 1)
        while self._lo > n:
            self._fill(self._lo - 1)
        return self._values[(j, n)]

    def value(self, j: int, n: int) -> RationalFunction:
        """b_j at orbit position n in canonical form (memoized, grows the
        table as needed)."""
        key = (j, n)
        cached = self._canonical.get(key)
        if cached is None:
            num = self._numerator(j, n)
            cached = self._canonical[key] = RationalFunction(num, self._dens[n])
        return cached

    def valuation(self, j: int, n: int) -> Valuation:
        """nu_q of b_j at orbit position n, read as ord_0 N - ord_0 D."""
        num = self._numerator(j, n)
        if num.is_zero:
            return INFINITY
        return num.order_at_zero() - self._dens[n].order_at_zero()

    def series(self, j: int, n: int) -> QSeries:
        """b_j at orbit position n as a q-series at working precision."""
        key = (j, n)
        cached = self._series.get(key)
        if cached is None:
            num = self._numerator(j, n)
            cached = self._series[key] = fraction_series(num, self._dens[n],
                                                         self.precision)
        return cached

    def double_precision(self) -> None:
        """Double the working precision and drop every series memo."""
        self.precision *= 2
        self._series.clear()
        self._actions.clear()

    def with_enough_precision(self, compute: Callable[[], T]) -> T:
        """compute(), redone at double precision for as long as it reads a
        series that is zero to working precision.

        The doubling ends: a series that is zero past the degree bound of
        its exact value is exactly zero and reads as such (see qvalues).
        """
        while True:
            try:
                return compute()
            except PrecisionLoss:
                self.double_precision()

    def point_value(self, n: int):
        """The constant rho + n used when evaluating coefficients at this
        position."""
        return self._root + n

    def recurrence_residual(self, j: int, w: int) -> RationalFunction:
        """The deformed relation evaluated on the cached window at w;
        exactly zero for every valid solution."""
        acc = RationalFunction.zero()
        for i in range(self.order + 1):
            acc = acc + self.value(j, w + i) * self._ell_eval(i, w)
        return acc

    @property
    def max_degree(self) -> int:
        """Largest q-degree of a numerator or denominator in the table, as
        stored, that is before any common factor is cancelled (diagnostic)."""
        degrees = [p.degree for p in self._values.values()]
        degrees += [p.degree for p in self._dens.values()]
        return max(0, *degrees)


def apply_element_all(element: QuotientElement, basis: SolutionBasis,
                      n: int) -> Tuple[QSeries, ...]:
    """(B . b_j)(z + n) for j = 1..r as q-series at the basis's working
    precision: the coordinates expanded at z + n + q by truncated Taylor
    shifts, against the series of the solution values at positions n,
    n+1, ...

    An entry is exactly ZERO only when that is proven (see qvalues); one
    that is zero to working precision makes nu_q and coefficient raise
    PrecisionLoss, which `basis.with_enough_precision` answers by doubling
    the precision.  Memoised on the solution basis under the key (element, n), so each row
    is evaluated once per offset and precision for the lifetime of the
    basis (one analysis).
    """
    key = (element, n)
    cached = basis._actions.get(key)
    if cached is not None:
        return cached
    z = basis.point_value(n)
    terms = basis.precision
    shifted = [(i, shifted_series(c, z, terms))
               for i, c in enumerate(element.coords) if not c.is_zero]
    out = []
    for j in range(1, basis.order + 1):
        acc = ZERO
        for i, cz in shifted:
            acc = acc + cz * basis.series(j, n + i)
        out.append(acc)
    cached = basis._actions[key] = tuple(out)
    return cached
