"""Independent oracles: brute-force valuation recomputation, module
equality of bases at a point, the integrality certificate, and seeded
random-operator generators for the property suites.

Everything here deliberately avoids the production caches: solution tables
are rebuilt from scratch at a freshly shifted anchor on every entry point,
so agreement with the main path is evidence, not tautology.  The q side
stays exact without a gcd in K(q) and runs on the integer kernel of
`fields`: table values and row values are numerators over denominators
known from their construction, and the q-adic value of a sum of such
fractions is read lazily, lowest terms first, from its cross-multiplied
numerator, built with no division by `fields.multiply`, the one product
of numerator lists: `convolve` on ints, and over a number field one
int polynomial in t per coefficient, reduced once.  A
certificate sample reads the q-orders of its sums from the orders of their
factors first, and builds a sum only when its least order is reached twice:
its random units are tested at z on the powers of z and shifted to z + q
only for such a tie.  Those orders depend on the sample's exponents alone,
so they are planned once per exponent tuple, and the draws are taken from
the generator's bits directly; the memos live for one call only.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from .errors import PrecintError, SingularTransitionError
from .fields import (
    INFINITY,
    AlgebraicPoint,
    NFElem,
    Poly,
    RationalFunction,
    Valuation,
    galois_norm_uniformizer,
    multiply,
    nu_at_factor,
    poly_gcd,
)
from .integral import BasisMatrix
from .ore import OreOperator, QuotientElement, default_anchor
from .valuation import singular_points


# ---------------------------------------------------------------------------
# Exact q-orders of sums, without a gcd
# ---------------------------------------------------------------------------

# A term of a sum in K(q): (order, top, bottom, nums, dens), standing for
# q^order * (top / bottom) * prod(nums) / prod(dens), with top and bottom
# positive ints and every factor the numerator list (ints, or elements of a
# number field) of a Poly whose constant term is nonzero.
_Term = Tuple[int, int, int, Tuple[Sequence, ...], Tuple[Sequence, ...]]


def _term(nums: Sequence[Poly], dens: Sequence[Poly]) -> Optional[_Term]:
    """prod(nums) / prod(dens) as a term, or None when it is zero.  Each
    factor is q^k times its numerators from the k-th on, over its int den."""
    order, top, bottom = 0, 1, 1
    units = []
    for p in nums:
        if p.is_zero:
            return None
        k = p.order_at_zero()
        order += k
        bottom *= p.den
        units.append(p.nums[k:])
    den_units = []
    for p in dens:
        k = p.order_at_zero()
        order -= k
        top *= p.den
        den_units.append(p.nums[k:])
    return order, top, bottom, tuple(units), tuple(den_units)


def _times(a: Optional[_Term], b: Optional[_Term]) -> Optional[_Term]:
    """The product of two terms."""
    if a is None or b is None:
        return None
    return (a[0] + b[0], a[1] * b[1], a[2] * b[2], a[3] + b[3], a[4] + b[4])


def _lazy_order(terms: Sequence[Optional[_Term]]) -> Valuation:
    """nu_q of a sum of terms, exactly and with no gcd and no division;
    numerator lists are multiplied by `fields.multiply` (`convolve` on ints).

    The order of each term is read off its factors.  A minimum m reached by
    one term only is the answer.  Otherwise the sum is q^m * N / (C * D),
    with D the product of every denominator factor, so D(0) != 0, and C the
    product of every term's `bottom`, an int.  The numerator N is the sum
    over the terms t of q^(order_t - m) * top_t * prod(bottom_s) *
    prod(nums_t) * prod(dens_s) over the other terms s, cross-multiplied on
    the numerator lists; its order is the order of the sum less m.  N is
    read from q^0 upward, doubling the length, until a coefficient is
    nonzero.  Its degree is at most `bound`, so it is zero exactly when its
    first bound + 1 coefficients are, and only that proves INFINITY.
    """
    terms = [t for t in terms if t is not None]
    if not terms:
        return INFINITY
    m = min(t[0] for t in terms)
    if sum(1 for t in terms if t[0] == m) == 1:
        return m
    den_degree = sum(len(d) - 1 for t in terms for d in t[4])
    bound = den_degree + max(
        order - m + sum(len(p) - 1 for p in nums) - sum(len(d) - 1 for d in dens)
        for order, _, _, nums, dens in terms)
    scales = []
    for t, (_, top, _, _, _) in enumerate(terms):
        for s, other in enumerate(terms):
            if s != t:
                top *= other[2]
        scales.append(top)
    n = 1
    while True:
        den_products = []
        for t in terms:
            product = [1]
            for d in t[4]:
                product = multiply(product, 1, d, 1, n)[0]
            den_products.append(product)
        acc = [0] * n
        for t, (order, _, _, nums, _) in enumerate(terms):
            k = order - m
            if k >= n:
                continue
            product = [scales[t]]
            for f in (*nums, *(p for s, p in enumerate(den_products) if s != t)):
                product = multiply(product, 1, f, 1, n - k)[0]
            for i, c in enumerate(product):
                acc[k + i] += c
        for i, c in enumerate(acc):
            if c:
                return m + i
        if n > bound:
            return INFINITY
        n = min(2 * n, bound + 1)


# ---------------------------------------------------------------------------
# A cache-free, fraction-free solution table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Table:
    """Solution j at position p is numerators[j][p] / prod(denominators[p]).

    denominators[p] maps (i, w) to the shifted coefficient l_i(root + w + q)
    for each extreme coefficient divided by on the way from the identity
    window to p: l_r going right, l_0 going left.  Every solution shares
    them, and the map of a position holds the maps of the positions between
    it and the window.
    """

    numerators: Tuple[Dict[int, Poly], ...]
    denominators: Dict[int, Dict[Tuple[int, int], Poly]]


def _product(factors: Sequence[Poly]) -> Poly:
    out = Poly.one()
    for f in factors:
        out = out * f
    return out


def _fresh_solution_table(modulus: OreOperator, orbit: AlgebraicPoint,
                          anchor: int, lo: int, hi: int) -> _Table:
    """Unroll the identity-window solutions across [lo, hi] with plain loops
    over K[q], never dividing.  The denominator at p is the one of its
    neighbour toward the window times one new extreme coefficient, step[p];
    the recurrence sum is brought to the neighbour's denominator by Horner's
    rule over those steps.  No state survives the call."""
    ell = modulus.polynomial_coeffs()
    r = modulus.order
    root = orbit.orbit().value()
    lo = min(lo, anchor)
    hi = max(hi, anchor + r - 1)
    ell_at: Dict[Tuple[int, int], Poly] = {}

    def lev(i: int, w: int) -> Poly:
        key = (i, w)
        if key not in ell_at:
            ell_at[key] = ell[i].shift(root + w)
        return ell_at[key]

    dens: Dict[int, Dict[Tuple[int, int], Poly]] = {
        anchor + i: {} for i in range(r)}
    step: Dict[int, Poly] = {}
    for p in range(anchor + r, hi + 1):
        step[p] = lev(r, p - r)
        dens[p] = {**dens[p - 1], (r, p - r): step[p]}
    for p in range(anchor - 1, lo - 1, -1):
        step[p] = lev(0, p)
        dens[p] = {**dens[p + 1], (0, p): step[p]}

    def raised(acc: Poly, t: int) -> Poly:
        return acc * step[t] if t in step else acc

    numerators = []
    for j in range(1, r + 1):
        vals = {anchor + i - 1: (Poly.one() if i == j else Poly.zero())
                for i in range(1, r + 1)}
        for p in range(anchor + r, hi + 1):
            w = p - r
            acc = lev(0, w) * vals[w]
            for i in range(1, r):
                acc = raised(acc, w + i) + lev(i, w) * vals[w + i]
            vals[p] = -acc
        for p in range(anchor - 1, lo - 1, -1):
            acc = lev(r, p) * vals[p + r]
            for i in range(r - 1, 0, -1):
                acc = raised(acc, p + i) + lev(i, p) * vals[p + i]
            vals[p] = -acc
        numerators.append(vals)
    return _Table(tuple(numerators), dens)


def brute_val(element: QuotientElement, point: AlgebraicPoint,
              modulus: OreOperator, window: int) -> Valuation:
    """Recompute the value of an element at a point from first principles:
    fresh anchor `window` positions further left, no caching.  The element
    meets each solution as one numerator over a common denominator, as a
    basis row does in `certificate`, so its value is the least q-order of
    the numerators less that of the denominator.

    The window must be at least the order plus the spread of the singular
    offsets, so the shifted anchor is still left of every coefficient root.
    The modulus is used as passed, as by `certificate`: it must have
    polynomial coefficients, and the roots of a common polynomial factor
    count among the singular offsets, which can raise the least window.
    """
    r = modulus.order
    if element.dimension != r:
        raise PrecintError("element dimension does not match the operator order")
    orbit = point.orbit()
    if window < _least_window(modulus, orbit):
        raise PrecintError("window is too small for this operator")
    anchor = default_anchor(modulus, orbit) - window
    table = _fresh_solution_table(modulus, orbit, anchor,
                                  point.offset, point.offset + r - 1)
    [(nums, den)] = _row_values([element], table, orbit.value() + point.offset,
                                point.offset)
    return min(num.order_at_zero() for num in nums) - den.order_at_zero()


def _least_window(modulus: OreOperator, orbit: AlgebraicPoint) -> int:
    """The order plus the spread of the singular offsets of the orbit."""
    left, right = singular_points(modulus, orbit)
    offs = left + right
    return modulus.order + (max(offs) - min(offs) if offs else 0)


# ---------------------------------------------------------------------------
# Module equality of bases at a point
# ---------------------------------------------------------------------------


def module_equal_at(a: BasisMatrix, b: BasisMatrix,
                    point: AlgebraicPoint) -> bool:
    """True when both bases generate the same module of local integral
    combinations at the point: the transition matrix T with A = T*B must
    have entries of nonnegative valuation and determinant of valuation 0.
    Row i of T solves T_i * B = a_i, and det T = det A / det B, so the two
    determinants' valuations must agree."""
    norm = galois_norm_uniformizer(point)

    def nu(f) -> Valuation:
        return nu_at_factor(f, norm)

    mb = b.coord_matrix()
    db = _linalg.determinant(mb, nu)
    if db is INFINITY:
        raise SingularTransitionError("second basis does not span the space")
    ma = a.coord_matrix()
    da = _linalg.determinant(ma, nu)
    if da is INFINITY:
        raise SingularTransitionError("first basis does not span the space")
    mb_t = [list(col) for col in zip(*mb)]
    for row in ma:
        for entry in _linalg.solve_with_free_zero(mb_t, row):
            if not entry.is_zero and nu(entry) < 0:
                return False
    return da == db


# ---------------------------------------------------------------------------
# The integrality certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateViolation:
    sample: int
    exponents: Tuple[int, ...]
    value: object  # int or "infinity"
    claimed_integral: bool


@dataclass(frozen=True)
class CertificateReport:
    point: str
    samples: int
    seed: int
    window: int
    violations: Tuple[CertificateViolation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "point": self.point,
            "samples": self.samples,
            "seed": self.seed,
            "window": self.window,
            "passed": self.passed,
            "violations": [
                {
                    "sample": v.sample,
                    "exponents": list(v.exponents),
                    "value": v.value,
                    "claimed_integral": v.claimed_integral,
                }
                for v in self.violations
            ],
        }

    def to_text(self) -> str:
        status = "ok" if self.passed else f"{len(self.violations)} violation(s)"
        lines = [
            f"certificate at {self.point}: {status} "
            f"({self.samples} samples, seed {self.seed})"
        ]
        for v in self.violations:
            lines.append(
                f"  sample {v.sample}: exponents {list(v.exponents)} "
                f"gave value {v.value}"
            )
        return "\n".join(lines)


def _powers_of(z) -> List[Tuple[int, int, int]]:
    """z^0, z^1 and z^2 as int lists over one int denominator (for a number
    field the numerators in t of their residues), read by coefficient: entry
    k holds coefficient k of each.  The denominator is dropped, as a sum of
    the powers is only ever tested for zero."""
    powers = []
    for p in (1, z, z * z):
        if isinstance(p, NFElem):
            powers.append((p.nums, p.den))
        else:
            p = Fraction(p)
            powers.append(((p.numerator,), p.denominator))
    den = math.lcm(*(d for _, d in powers))
    size = max(len(nums) for nums, _ in powers)
    return list(zip(*([c * (den // d) for c in nums] + [0] * (size - len(nums))
                      for nums, d in powers)))


def _vanishes_at(coeffs: Sequence[int], powers: Sequence[Tuple[int, int, int]]) -> bool:
    """Whether the polynomial with the ints `coeffs` (at most three, lowest
    first) is zero at z, given the powers of z from `_powers_of`: whether
    its shift to z + q has a zero constant term."""
    for entry in powers:
        if sum(map(operator.mul, coeffs, entry)):
            return False
    return True


def _below(getrandbits, n: int) -> int:
    """`Random._randbelow(n)`: n.bit_length() bits at a time, drawn again
    while at least n, so the stream of `rng.getrandbits` goes as under
    `randint` and `choice` (the tests pin this to `random.Random`)."""
    k = n.bit_length()
    v = getrandbits(k)
    while v >= n:
        v = getrandbits(k)
    return v


# A random unit has valuation exactly 0 at the point z (and all of its
# conjugates).  Its numerator has small int coefficients and is drawn again
# while it vanishes at z, which is exactly when the point's minimal
# polynomial, irreducible with root z, divides it; the test is made on the
# powers of z, with no shift.  Its denominator is 1 for the shift c = 0 and
# otherwise the norm of the point shifted by c, a unit by construction.
_UNIT_SHIFTS = (0, 1, -1, 2)


def _plan(exponents: Tuple[int, ...], order_of: Dict[int, int],
          row_orders: Sequence[Sequence[Optional[int]]]
          ) -> Tuple[Valuation, List[Tuple[int, int]], bool]:
    """What a sample's exponents alone decide: the least order of the sums
    whose least term order is reached once, the tied sums as (least order,
    solution), least first, that could lower it, and whether the sample is
    claimed integral.  A tied sum has at least its least order, so a tie at
    or above the untied value is dropped."""
    orders = [order_of[e] for e in exponents]
    untied = INFINITY
    tied = []
    for j in range(len(row_orders[0])):
        term_orders = [k + row[j] for k, row in zip(orders, row_orders)
                       if row[j] is not None]
        least = min(term_orders, default=INFINITY)
        if term_orders.count(least) > 1:
            tied.append((least, j))
        elif least < untied:
            untied = least
    return (untied, sorted(t for t in tied if t[0] < untied),
            all(e >= 0 for e in exponents))


def _row_values(rows: Sequence[QuotientElement], table: _Table, z,
                offset: int) -> List[Tuple[List[Poly], Poly]]:
    """The value of each row on each solution, as numerators over one
    denominator per row: the lcm of the row's coordinate denominators (taken
    in Q[x], before the shift to z + q) times the table denominators of the
    positions the rows read."""
    positions = range(offset, offset + len(table.numerators))
    common: Dict[Tuple[int, int], Poly] = {}
    for p in positions:
        common.update(table.denominators[p])
    # every solution's value at every position over the same denominator
    lifted = {}
    for p in positions:
        own = table.denominators[p]
        cofactor = _product([f for key, f in common.items() if key not in own])
        lifted[p] = [vals[p] * cofactor for vals in table.numerators]
    table_den = _product(list(common.values()))
    out = []
    for row in rows:
        den = Poly.one()
        for c in row.coords:
            if not c.is_zero:
                den = den * poly_gcd(den, c.den)[2]
        scaled = [(offset + i, (c.num * (den // c.den)).shift(z))
                  for i, c in enumerate(row.coords) if not c.is_zero]
        nums = []
        for j in range(len(table.numerators)):
            acc = Poly.zero()
            for p, a in scaled:
                acc = acc + a * lifted[p][j]
            nums.append(acc)
        out.append((nums, den.shift(z) * table_den))
    return out


def certificate(modulus: OreOperator, basis: BasisMatrix,
                point: AlgebraicPoint, samples: int, seed: int,
                window: Optional[int] = None) -> CertificateReport:
    """Sample random coordinate vectors with prescribed valuations at the
    point and check the two-way integrality criterion against a fresh
    brute-force solution table.

    Coordinates are random units times powers of the point's minimal
    polynomial with exponents in {-2..2}; a clean report means integrality
    of the combination is exactly equivalent to all exponents being
    nonnegative.  The sampled values are byte-for-byte what repeated
    brute_val calls would compute; the table is simply built once.  A term
    of a sum has the sum of its factors' orders, a unit's being 0, so a
    least order reached by one term only is the order of the sum, read with
    no arithmetic.  A tied sum has at least its least order: it is read by
    `_lazy_order`, lowest first, only while that order is below the least
    order of the sample found so far, and only then are the sample's units
    shifted to z + q.  A unit's denominator has order 0 at z (checked), so
    the orders and ties depend on the exponents only and are planned once
    per exponent tuple, and a unit's test at z and shift are kept per
    coefficient tuple, for the call only.  The draws take the bits of
    `random.Random(seed)` as `randint` and `choice` would.  A window
    smaller than brute_val accepts, or a negative number of samples, raises
    PrecintError rather than report a check of the wrong table or of
    nothing.

    The modulus is used as passed; normalize it first to check what the
    CLI checks.  A constant factor changes nothing.  A common polynomial
    factor leaves the values unchanged, but its roots count among the
    singular offsets, so the least window and the default one can grow.
    """
    r = modulus.order
    if basis.dimension != r:
        raise PrecintError("basis size does not match the operator order")
    if samples < 0:
        raise PrecintError("the number of samples must not be negative")
    orbit = point.orbit()
    least_window = _least_window(modulus, orbit)
    if window is None:
        window = least_window + 2
    elif window < least_window:
        raise PrecintError("window is too small for this operator")
    anchor = default_anchor(modulus, orbit) - window
    lo = point.offset
    hi = point.offset + r - 1
    table = _fresh_solution_table(modulus, orbit, anchor, lo, hi)
    root = orbit.value()
    z = root + point.offset
    # the action is linear over coefficients evaluated at z + q, so each
    # basis row meets each solution only once, outside the sample loop;
    # row_terms[i][j] is row i on solution j as a term, None when zero
    row_terms = [[_term((num,), (den,)) for num in nums]
                 for nums, den in _row_values(basis.rows, table, z,
                                              point.offset)]
    # coordinate factors other than the unit's numerator, for each exponent
    # e and unit shift c: norm(z + q)^e / (the norm of the point shifted by c)
    norm_at_z = galois_norm_uniformizer(point).shift(z)
    unit_dens = {c: (galois_norm_uniformizer(point.shifted(c)).shift(z),)
                 for c in (1, -1, 2)}
    unit_dens[0] = ()
    scaffold = {(e, c): _term((norm_at_z,) * max(e, 0),
                              den + (norm_at_z,) * max(-e, 0))
                for e in range(-2, 3) for c, den in unit_dens.items()}
    # the q-order of every factor of a sum is known without arithmetic: a
    # unit's is 0, and scaffold and row terms carry their own; a unit's
    # denominator is a unit at z, so a coordinate's order is its exponent's
    order_of = {e: scaffold[e, 0][0] for e in range(-2, 3)}
    if any(t[0] != order_of[e] for (e, _), t in scaffold.items()):
        raise PrecintError("a unit's denominator is not a unit at the point")
    row_orders = [[None if t is None else t[0] for t in row] for row in row_terms]
    powers = _powers_of(z)
    # memos of this call: whether a unit's coefficients vanish at z, the unit
    # shifted to z + q as a term, and the plan of each exponent tuple
    vanishes: Dict[Tuple[int, ...], bool] = {}
    shifted: Dict[Tuple[int, ...], _Term] = {}
    plans: Dict[Tuple[int, ...], tuple] = {}
    getrandbits = random.Random(seed).getrandbits
    violations: List[CertificateViolation] = []
    for s in range(samples):
        exponents = tuple([_below(getrandbits, 5) - 2 for _ in range(r)])
        units = []
        for _ in range(r):
            while True:
                coeffs = tuple([_below(getrandbits, 7) - 3
                                for _ in range(_below(getrandbits, 3) + 1)])
                if coeffs not in vanishes:
                    vanishes[coeffs] = _vanishes_at(coeffs, powers)
                if not vanishes[coeffs]:
                    break
            units.append((coeffs, _UNIT_SHIFTS[_below(getrandbits, 4)]))
        plan = plans.get(exponents)
        if plan is None:
            plan = plans[exponents] = _plan(exponents, order_of, row_orders)
        value, ties, claimed = plan
        # reading a tie needs the units, each shifted once per call
        coeffs_at_z = None
        for least, j in ties:
            if least >= value:
                break
            if coeffs_at_z is None:
                for coeffs, _ in units:
                    if coeffs not in shifted:
                        shifted[coeffs] = _term((Poly(coeffs).shift(z),), ())
                coeffs_at_z = [_times(shifted[coeffs], scaffold[e, c])
                               for e, (coeffs, c) in zip(exponents, units)]
            v = _lazy_order([_times(coeff, row[j]) for coeff, row
                             in zip(coeffs_at_z, row_terms)])
            if v < value:
                value = v
        if (value >= 0) != claimed:
            violations.append(CertificateViolation(
                s, exponents, value if value is not INFINITY else "infinity",
                claimed))
    return CertificateReport(str(point), samples, seed, window,
                             tuple(violations))


# ---------------------------------------------------------------------------
# Random operators for the property suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomOperatorSpec:
    """Shape of the operators drawn for property tests."""

    order: int = 2
    coeff_degree: int = 2
    height: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.order <= 5:
            raise ValueError("order must be between 1 and 5")
        if not 0 <= self.coeff_degree <= 3:
            raise ValueError("coefficient degree must be between 0 and 3")
        if self.height < 1:
            raise ValueError("height must be positive")


def _random_poly(rng: random.Random, max_degree: int, height: int,
                 nonzero: bool) -> Poly:
    while True:
        degree = rng.randint(0, max_degree)
        p = Poly([rng.randint(-height, height) for _ in range(degree + 1)])
        if not nonzero or not p.is_zero:
            return p


def random_operator(spec: RandomOperatorSpec,
                    rng: Optional[random.Random] = None) -> OreOperator:
    """One operator with nonzero trailing and leading coefficients."""
    rng = rng or random.Random(spec.seed)
    coeffs = []
    for i in range(spec.order + 1):
        endpoint = i in (0, spec.order)
        coeffs.append(_random_poly(rng, spec.coeff_degree, spec.height,
                                   nonzero=endpoint))
    return OreOperator(tuple(RationalFunction(p) for p in coeffs))


def random_operators(spec: RandomOperatorSpec, count: int) -> List[OreOperator]:
    rng = random.Random(spec.seed)
    return [random_operator(spec, rng) for _ in range(count)]
