"""The q side of the value function: the q-adic valuation of exact values
in K(q), and truncated Laurent series in q for what the main path computes
from them.

The anchored solution tables stay exact, as numerators in K[q] over known
denominators that need not be in lowest terms (see ore): their q-orders
are read from those two polynomials, and `fraction_series` expands them
without a gcd.  What the local loop reads from an element's action on
them is small: a valuation, the q^0 coefficient, and the valuation of one
r x r determinant.  So the action and everything computed from it is a
`QSeries`: a valuation, the coefficients known from there on, and an
absolute precision, under the usual rules of precision tracking (Caruso,
Roe and Vaccon, *Tracking p-adic precision*, 2014): a sum is known up to
the smaller precision, a product of a and b up to min(prec_a + v_b,
prec_b + v_a).  Series are never divided by one another: the expansions
divide only by exact polynomials with a nonzero constant term, and the
determinant's valuation is read from the pivots of a division-free
elimination.

One class holds both kinds of coefficients, as `Poly` does: over Q int
numerators over one denominator, over a number field K = Q[t]/(m) the
`NFElem`s from the Taylor coefficients at the point, each its int
numerators in t over its own denominator (see fields), and the entries
choose the kernel.  Every output coefficient of a product or expansion
over K is one int polynomial in t over its own common denominator,
reduced mod m once (`fields.multiply`, `fields.field_quotient`), and an
expansion multiplies it by the inverse of the denominator's constant
term, computed once per expansion on ints.  A constant coordinate over Q
stays a series over Q at an algebraic point too, and is lifted into the
field only where a sum or product meets a series over K.

A series that is zero to its precision has no valuation and no
coefficients from its precision on; reading one raises `PrecisionLoss`,
and the caller redoes that one computation at double precision (extension
on demand, after van der Hoeven, *Relax, but don't be too lazy*, 2002).
Such a series is never read as a large valuation.  What ends the doubling
is a proof: every series carries a height (dn, dd, od) saying that its
exact value is P/D with deg P <= dn, deg D <= dd and ord_0 D >= od, so a
nonzero exact value has valuation at most dn - od.  A result that is zero
to a precision past that bound is exactly zero, and becomes `ZERO`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .fields import (
    INFINITY,
    NFElem,
    Poly,
    RationalFunction,
    Valuation,
    _field_of,
    convolve,
    field_quotient,
    from_exact,
    lowest_terms,
    multiply,
    summands,
    taylor_shift,
)

Height = Tuple[int, int, int]


class PrecisionLoss(ArithmeticError):
    """A valuation, coefficient or pivot was asked of a series that is zero
    to working precision; the computation must be redone at a higher one."""


class QSeries:
    """A truncated Laurent series in q: the coefficients of q^val, ...,
    q^(prec-1), the first of them nonzero, plus O(q^prec).

    The coefficients are held as `Poly` holds them: over Q int numerators
    `nums` over one positive int `den`, content-reduced, so sums, products
    and expansions run on ints; over a number field `NFElem`s of that
    field over 1.  `den=None` reads exact constants (ints, Fractions or
    elements of one field) with `fields.from_exact`.  `coeffs` and
    `coefficient(n)` rebuild a `Fraction` from an int entry and return an
    element as it is.

    Three states: a known leading term (`nums` nonempty), zero to
    precision `prec` (`nums` empty, `val == prec`), and exactly zero
    (`ZERO`, with `val` and `prec` INFINITY).  Treat instances as
    immutable.
    """

    __slots__ = ("val", "nums", "den", "prec", "height")

    def __init__(self, val: int, nums: Sequence, den: Optional[int], prec: int,
                 height: Height):
        if den is None:
            nums, den = from_exact(nums)
        lead = 0
        while lead < len(nums) and not nums[lead]:
            lead += 1
        if lead:
            nums = nums[lead:]
        if not nums:
            den = 1
            val = prec
            if prec is not INFINITY and prec > height[0] - height[2]:
                val = prec = INFINITY  # zero past the bound: exactly zero
        else:
            val += lead
            if den != 1:
                nums, den = lowest_terms(nums, den)
        self.val = val
        self.nums = nums
        self.den = den
        self.prec = prec
        self.height = height

    def __repr__(self):
        if self.prec is INFINITY:
            return "QSeries(0)"
        terms = " + ".join(f"({c})*q^{self.val + k}"
                           for k, c in enumerate(self.coeffs))
        return f"QSeries({terms} + O(q^{self.prec}))" if terms else \
            f"QSeries(O(q^{self.prec}))"

    # -- queries --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """Exactly zero (not merely zero to working precision)."""
        return self.prec is INFINITY

    @property
    def known(self) -> bool:
        """Whether the leading term, hence the valuation, is known."""
        return bool(self.nums)

    @property
    def coeffs(self) -> List:
        """The exact coefficients of q^val, ..., q^(prec-1)."""
        den = self.den
        return [Fraction(c, den) if type(c) is int else c for c in self.nums]

    @property
    def valuation(self) -> Valuation:
        if self.nums:
            return self.val
        if self.prec is INFINITY:
            return INFINITY
        raise PrecisionLoss(f"valuation of a series that is O(q^{self.prec})")

    def coefficient(self, n: int):
        """The coefficient of q^n; raises PrecisionLoss past the precision."""
        if n < self.val:
            return Fraction(0)
        if n >= self.prec:
            raise PrecisionLoss(f"coefficient of q^{n} of a series known "
                                f"to O(q^{self.prec})")
        c = self.nums[n - self.val]
        return Fraction(c, self.den) if type(c) is int else c

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        if self.prec is INFINITY:
            return other
        if other.prec is INFINITY:
            return self
        ha, hb = self.height, other.height
        height = (max(ha[0] + hb[1], hb[0] + ha[1]), ha[1] + hb[1], ha[2] + hb[2])
        prec = min(self.prec, other.prec)
        a, b = (self, other) if self.val <= other.val else (other, self)
        if a.val >= prec:  # neither operand has a coefficient below prec
            return QSeries(prec, [], 1, prec, height)
        an, bn = a.nums[:prec - a.val], b.nums[:max(0, prec - b.val)]
        if not bn:
            if b.nums and type(an[0]) is NFElem:
                an[0].field._lift(b.nums[:1], 1)  # refuses a second field
            return QSeries(a.val, an, a.den, prec, height)
        off = b.val - a.val
        an, bn, den = summands(an, a.den, bn, b.den)
        out = list(an)
        for k, c in enumerate(bn):
            out[off + k] += c
        return QSeries(a.val, out, den, prec, height)

    def __neg__(self) -> "QSeries":
        if self.prec is INFINITY:
            return self
        return QSeries(self.val, [-c for c in self.nums], self.den, self.prec,
                       self.height)

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):  # a constant
            if not other:
                return ZERO
            if self.prec is INFINITY:
                return self
            return QSeries(self.val, [c * other for c in self.coeffs], None,
                           self.prec, self.height)
        if self.prec is INFINITY or other.prec is INFINITY:
            return ZERO
        ha, hb = self.height, other.height
        height = (ha[0] + hb[0], ha[1] + hb[1], ha[2] + hb[2])
        if not (self.nums and other.nums):
            # val is a lower bound on the valuation in every state
            prec = min(self.prec + other.val, other.prec + self.val)
            return QSeries(prec, [], 1, prec, height)
        val = self.val + other.val
        a, b = self.nums, other.nums
        n = min(len(a), len(b))
        if type(a[0]) is int and type(b[0]) is int:
            return QSeries(val, convolve(a, b, n), self.den * other.den, val + n, height)
        nums, den = multiply(a, self.den, b, other.den, n)
        return QSeries(val, nums, den, val + n, height)


ZERO = QSeries(0, [], 1, INFINITY, (0, 0, 0))


def _quotient(num: Sequence, num_den: int, den: Sequence, den_den: int,
              val: int, terms: int, height: Height) -> QSeries:
    """q^val * (num/num_den) / (den/den_den) to `terms` coefficients, for
    numerator lists (as `Poly` holds them) whose denominator has a nonzero
    constant term; missing entries are zero.

    Over Q it runs on ints: with d0 = den[0] and P = d0^terms, every
    w_k = out_k * P is an int, w_k = (num_k * P - sum w_i den_(k-i)) / d0,
    and that division is exact.  With a number-field element among them it
    runs on the elements' int numerators (`fields.field_quotient`)."""
    d0 = den[0]
    if type(d0) is int and type(num[0]) is int:
        scale = d0 ** terms
        w: List = []
        for k in range(terms):
            acc = num[k] * scale if k < len(num) else 0
            for i in range(max(0, k - len(den) + 1), k):
                acc -= w[i] * den[k - i]
            w.append(acc // d0)
        if den_den != 1:
            w = [c * den_den for c in w]
        return QSeries(val, w, scale * num_den, val + terms, height)
    field = _field_of(num, den)
    return QSeries(val, field_quotient(field, field._lift(num, num_den),
                                       field._lift(den, den_den), terms),
                   1, val + terms, height)


def fraction_series(num: Poly, den: Poly, terms: int) -> QSeries:
    """The expansion of num/den at q = 0, with `terms` coefficients from its
    valuation on, for polynomials in q that need not be coprime (den != 0).
    The height (deg num, deg den, ord_0 den) bounds the value as it does in
    lowest terms, only more loosely when a factor is shared."""
    if num.is_zero:
        return ZERO
    a = num.order_at_zero()
    b = den.order_at_zero()
    return _quotient(num.nums[a:], num.den, den.nums[b:], den.den, a - b, terms,
                     (num.degree, den.degree, b))


def q_series(f: RationalFunction, terms: int) -> QSeries:
    """The expansion of an exact f in K(q) at q = 0, with `terms`
    coefficients from its valuation on."""
    return fraction_series(f.num, f.den, terms)


def _taylor(p: Poly, z, terms: int) -> Tuple[int, List, int]:
    """(a, t, d) with p(z + q) = q^a * (t[0] + t[1] q + ...) / d, t[0] != 0,
    and at most `terms` entries in t (fewer when p runs out: the rest are
    zero), by the truncated Taylor shift of `fields.taylor_shift`."""
    cs, den = taylor_shift(p, z, terms)
    order = 0
    while not cs[order]:
        order += 1
    return order, cs[order:order + terms], den


def shifted_series(f: RationalFunction, z, terms: int) -> QSeries:
    """f(z + q) for f in K(x), with `terms` coefficients from its valuation
    on, by truncated Taylor shifts of its numerator and denominator (the
    exact shifted rational function is never formed).  At a point z of a
    number field the Taylor coefficients are elements, and the quotient a
    series over the field, unless f is a constant over Q: that stays a
    series over Q."""
    if f.is_zero:
        return ZERO
    a, num, num_den = _taylor(f.num, z, terms)
    b, den, den_den = _taylor(f.den, z, terms)
    return _quotient(num, num_den, den, den_den, a - b, terms,
                     (f.num.degree, f.den.degree, b))


def nu_q(f) -> Valuation:
    """The q-adic valuation of an exact f in K(q) (order at q = 0 of num
    minus den) or of a QSeries; INFINITY at 0.  A series that is zero to
    working precision raises PrecisionLoss."""
    if isinstance(f, QSeries):
        return f.valuation
    if f.is_zero:
        return INFINITY
    return f.num.order_at_zero() - f.den.order_at_zero()
