"""The shift Ore algebra, its quotient modules, and anchored solution bases.

Operators live in C(x)[S] with the commutation rule S*x = (x+1)*S.  For a
fixed operator L of order r, residue classes modulo L are coordinate
vectors against the standard basis 1, S, ..., S^(r-1).  Solutions of L are
sequences on an orbit rho + Z with values in K(q), obtained by evaluating
coefficients at z + q; anchoring the initial window left of every
coefficient root makes every division hit a nonzero polynomial in q.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .errors import PrecintError
from .fields import (
    AlgebraicPoint,
    NFElem,
    Poly,
    RationalFunction,
    factor,
    integer_shift,
    poly_gcd,
)
from .qvalues import QRational


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
        result = OreOperator.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- normalization ----------------------------------------------------------

    def normalized(self) -> "OreOperator":
        """Clear denominators and content so all coefficients are polynomials
        over Q with gcd 1 and the leading one has a positive leading
        coefficient."""
        if self.is_zero:
            return self
        common_den = Poly.one()
        for c in self.coeffs:
            g = poly_gcd(common_den, c.den)
            common_den = (common_den * c.den) // g
        nums = []
        for c in self.coeffs:
            nums.append(c.num * (common_den // c.den))
        g = Poly.zero()
        for p in nums:
            g = poly_gcd(g, p)
        if g.degree > 0:
            nums = [p // g for p in nums]
        # divide by rational content, fix the sign of the leading coefficient
        content = Fraction(0)
        for p in nums:
            for c in p.coeffs:
                content = _frac_gcd(content, Fraction(c))
        if content == 0:
            raise PrecintError("zero operator cannot be normalized")
        if nums[-1].leading < 0:
            content = -content
        inv = 1 / content
        return OreOperator(tuple(RationalFunction(p.scaled(inv)) for p in nums))

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


def _frac_gcd(a: Fraction, b: Fraction) -> Fraction:
    import math

    num = math.gcd(a.numerator, b.numerator)
    den = (a.denominator * b.denominator) // math.gcd(a.denominator, b.denominator)
    return Fraction(num, den)


def ore_multiply(a: OreOperator, b: OreOperator) -> OreOperator:
    """The noncommutative product in C(x)[S]."""
    return a * b


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
    if not modulus.is_valid_modulus and modulus.order < 1:
        raise PrecintError("modulus must have positive order")
    r = modulus.order
    ell = list(modulus.coeffs)
    if ell[r].is_zero:
        raise PrecintError("modulus has zero leading coefficient")
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
    """Integer offsets n with p(rho + n) = 0, for rho the orbit root."""
    if p.degree < 1:
        return ()
    rep = orbit.min_poly
    offs = []
    for fac, _ in factor(p):
        n = integer_shift(rep, fac)
        if n is not None:
            offs.append(n)
    return tuple(sorted(offs))


def default_anchor(modulus: OreOperator, orbit: AlgebraicPoint) -> int:
    """The leftmost offset at which the trailing or leading coefficient
    vanishes on the orbit; 0 when neither vanishes anywhere on it.

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
    i = 1..r; values elsewhere are filled on demand by solving the deformed
    recurrence for the unknown end.

    The memo of `apply_element_all` lives here too, keyed by (element,
    offset) with the immutable, hashable QuotientElement.  Like the values
    it lives as long as this object, that is as long as the one analysis
    that owns it, and no other analysis shares it; it holds one r-tuple per
    distinct (row, offset) pair asked for and is never evicted.  Both memos
    belong to a single analysis context and are not safe for unsynchronized
    concurrent writers.
    """

    def __init__(self, modulus: OreOperator, orbit: AlgebraicPoint,
                 anchor: Optional[int] = None):
        modulus = modulus.normalized()
        if not modulus.is_valid_modulus:
            raise PrecintError("modulus must have nonzero trailing and leading coefficients")
        self.modulus = modulus
        self.orbit = orbit.orbit()
        self.order = modulus.order
        self.anchor = default_anchor(modulus, self.orbit) if anchor is None else anchor
        self._root = self.orbit.value()  # Fraction or number-field generator
        self._ell = modulus.polynomial_coeffs()
        self._ell_at: Dict[Tuple[int, int], RationalFunction] = {}
        self._values: Dict[Tuple[int, int], QRational] = {}
        self._actions: Dict[Tuple[QuotientElement, int], Tuple[QRational, ...]] = {}
        self._lo: Dict[int, int] = {}
        self._hi: Dict[int, int] = {}
        one = RationalFunction.one()
        zero = RationalFunction.zero()
        for j in range(1, self.order + 1):
            for i in range(1, self.order + 1):
                self._values[(j, self.anchor + i - 1)] = one if i == j else zero
            self._lo[j] = self.anchor
            self._hi[j] = self.anchor + self.order - 1

    def _ell_eval(self, i: int, w: int) -> RationalFunction:
        key = (i, w)
        cached = self._ell_at.get(key)
        if cached is None:
            cached = RationalFunction(self._ell[i].shift(self._root + w))
            self._ell_at[key] = cached
        return cached

    def value(self, j: int, n: int) -> QRational:
        """b_j at orbit position n (memoized, grows the table as needed)."""
        if not 1 <= j <= self.order:
            raise ValueError(f"solution index {j} out of range 1..{self.order}")
        r = self.order
        while self._hi[j] < n:
            p = self._hi[j] + 1
            w = p - r
            acc = RationalFunction.zero()
            for i in range(r):
                acc = acc + self._ell_eval(i, w) * self._values[(j, w + i)]
            self._values[(j, p)] = -acc / self._ell_eval(r, w)
            self._hi[j] = p
        while self._lo[j] > n:
            w = self._lo[j] - 1
            acc = RationalFunction.zero()
            for i in range(1, r + 1):
                acc = acc + self._ell_eval(i, w) * self._values[(j, w + i)]
            self._values[(j, w)] = -acc / self._ell_eval(0, w)
            self._lo[j] = w
        return self._values[(j, n)]

    def point_value(self, n: int):
        """The constant rho + n used when evaluating coefficients at this
        position."""
        return self._root + n

    def recurrence_residual(self, j: int, w: int) -> QRational:
        """The deformed relation evaluated on the cached window at w;
        exactly zero for every valid solution."""
        acc = RationalFunction.zero()
        for i in range(self.order + 1):
            acc = acc + self._ell_eval(i, w) * self.value(j, w + i)
        return acc

    @property
    def max_degree(self) -> int:
        """Largest numerator/denominator q-degree in the table (diagnostic)."""
        worst = 0
        for v in self._values.values():
            worst = max(worst, v.num.degree, v.den.degree)
        return worst


def anchored_basis(modulus: OreOperator, orbit: AlgebraicPoint,
                   anchor: Optional[int] = None) -> SolutionBasis:
    """The solution basis anchored (by default) at the leftmost offset where
    the trailing or leading coefficient vanishes on the orbit."""
    return SolutionBasis(modulus, orbit, anchor)


def solution_value(basis: SolutionBasis, j: int, n: int) -> QRational:
    return basis.value(j, n)


def apply_element_all(element: QuotientElement, basis: SolutionBasis,
                      n: int) -> Tuple[QRational, ...]:
    """(B . b_j)(z + n) for j = 1..r: coefficients evaluated at z + n + q
    against the solution values at positions n, n+1, ...

    Memoised on the solution basis under the key (element, n), so each row
    is evaluated once per offset for the lifetime of the basis (one
    analysis); the memo grows by one r-tuple per distinct (row, offset)
    pair of the run and is dropped with the basis.
    """
    key = (element, n)
    cached = basis._actions.get(key)
    if cached is not None:
        return cached
    z = basis.point_value(n)
    shifted = [(i, c.shift(z)) for i, c in enumerate(element.coords) if not c.is_zero]
    out = []
    for j in range(1, basis.order + 1):
        acc = RationalFunction.zero()
        for i, cz in shifted:
            acc = acc + cz * basis.value(j, n + i)
        out.append(acc)
    cached = basis._actions[key] = tuple(out)
    return cached
