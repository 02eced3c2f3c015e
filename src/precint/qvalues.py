"""Exact arithmetic in K(q): the q-adic valuation and single Laurent
coefficients.

Sequence values produced by the deformed recurrence are always exact
rational functions of q (divisions only ever hit nonzero polynomials), so
no truncated series are needed; the one coefficient the improvement step
reads is computed on demand by power-series division at q = 0.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import INFINITY, RationalFunction, Valuation

# The values of sequence solutions: rational functions in q over the
# constant field of the orbit.  Negative q-valuation (a pole at q = 0) is
# legal; canonical form is the same coprime/monic-denominator one.
QRational = RationalFunction


def nu_q(f: QRational) -> Valuation:
    """The q-adic valuation: order at q = 0 of num minus den; INFINITY at 0."""
    if f.is_zero:
        return INFINITY
    return f.num.order_at_zero() - f.den.order_at_zero()


def q_coefficient(f: QRational, n: int):
    """The single Laurent coefficient of q^n in f."""
    if f.is_zero:
        return Fraction(0)
    a = f.num.order_at_zero()
    b = f.den.order_at_zero()
    v = a - b
    if n < v:
        return Fraction(0)
    n0 = f.num.coeffs[a:]
    d0 = f.den.coeffs[b:]
    inv_lead = 1 / d0[0]
    out = []
    for k in range(n - v + 1):
        acc = n0[k] if k < len(n0) else Fraction(0)
        for i in range(max(0, k - len(d0) + 1), k):
            acc = acc - out[i] * d0[k - i]
        out.append(acc * inv_lead)
    return out[-1]
