"""Independent oracles: brute-force valuation recomputation, module
equality of bases at a point, the integrality certificate, and seeded
random-operator generators for the property suites.

Everything here deliberately avoids the production caches: solution tables
are rebuilt from scratch at a freshly shifted anchor on every entry point,
so agreement with the main path is evidence, not tautology.  The q side
stays exact without a gcd in K(q): table values and row values are
numerators over denominators known from their construction, and the q-adic
value of a sum of such fractions is read lazily from its lowest terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import _linalg
from .errors import PrecintError, SingularTransitionError
from .fields import (
    INFINITY,
    AlgebraicPoint,
    Poly,
    RationalFunction,
    Valuation,
    galois_norm_uniformizer,
    nu_at_factor,
    poly_gcd,
)
from .integral import BasisMatrix
from .ore import OreOperator, QuotientElement, default_anchor
from .valuation import singular_points


# ---------------------------------------------------------------------------
# Exact q-orders of sums, without a gcd
# ---------------------------------------------------------------------------

# A term of a sum in K(q): (order, nums, dens), standing for
# q^order * prod(nums) / prod(dens), with every factor a Poly whose constant
# term is nonzero.
_Term = Tuple[int, Tuple[Poly, ...], Tuple[Poly, ...]]


def _split(p: Poly) -> Tuple[int, Poly]:
    """Write a nonzero p as q^k * u with u(0) != 0; returns (k, u)."""
    k = p.order_at_zero()
    return k, (Poly(p.coeffs[k:]) if k else p)


def _term(nums: Sequence[Poly], dens: Sequence[Poly]) -> Optional[_Term]:
    """prod(nums) / prod(dens) as a term, or None when it is zero."""
    order = 0
    units = []
    for p in nums:
        if p.is_zero:
            return None
        k, u = _split(p)
        order += k
        units.append(u)
    den_units = []
    for p in dens:
        k, u = _split(p)
        order -= k
        den_units.append(u)
    return order, tuple(units), tuple(den_units)


def _truncated_product(factors: Sequence[Poly], n: int) -> List:
    out = [Fraction(1)]
    for f in factors:
        cs = f.coeffs[:n]
        prod = [Fraction(0)] * min(n, len(out) + len(cs) - 1)
        for i, a in enumerate(out):
            if not a:
                continue
            for k in range(min(len(cs), n - i)):
                prod[i + k] = prod[i + k] + a * cs[k]
        out = prod
    return out


def _series(nums: Sequence[Poly], dens: Sequence[Poly], n: int) -> List:
    """The first n coefficients of prod(nums) / prod(dens); each den has a
    nonzero constant term, so this is a power series."""
    num = _truncated_product(nums, n)
    den = _truncated_product(dens, n)
    inv = Fraction(1) / den[0]
    out = []
    for k in range(n):
        c = num[k] if k < len(num) else Fraction(0)
        for i in range(1, min(k, len(den) - 1) + 1):
            c = c - den[i] * out[k - i]
        out.append(c * inv)
    return out


def _lazy_order(terms: Sequence[Optional[_Term]]) -> Valuation:
    """nu_q of a sum of terms, exactly and with no gcd.

    The order of each term is read off its factors.  A minimum reached by
    one term only is the answer.  Otherwise the sum's coefficients are
    summed from q^m upward over the terms reaching that far, doubling the
    length, until one is nonzero.  With D the product of every
    denominator, the sum is q^m * N / D with D(0) != 0 and deg N at most
    `bound`; so N, hence the sum, is zero exactly when its first bound + 1
    coefficients are, and only that proves INFINITY.
    """
    terms = [t for t in terms if t is not None]
    if not terms:
        return INFINITY
    m = min(t[0] for t in terms)
    if sum(1 for t in terms if t[0] == m) == 1:
        return m
    den_degree = sum(d.degree for t in terms for d in t[2])
    bound = den_degree + max(
        order - m + sum(p.degree for p in nums) - sum(d.degree for d in dens)
        for order, nums, dens in terms)
    n = 1
    while True:
        acc = [Fraction(0)] * n
        for order, nums, dens in terms:
            k = order - m
            if k < n:
                for i, c in enumerate(_series(nums, dens, n - k)):
                    acc[k + i] = acc[k + i] + c
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
    modulus = modulus.normalized()
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


def _element_val(element: QuotientElement, table: _Table,
                 root, offset: int) -> Valuation:
    if element.is_zero:
        return INFINITY
    z = root + offset
    shifted = [(i, c.num.shift(z), c.den.shift(z))
               for i, c in enumerate(element.coords) if not c.is_zero]
    best = INFINITY
    for vals in table.numerators:
        v = _lazy_order([
            _term((a, vals[offset + i]),
                  (b, *table.denominators[offset + i].values()))
            for i, a, b in shifted])
        if v < best:
            best = v
    return best


def brute_val(element: QuotientElement, point: AlgebraicPoint,
              modulus: OreOperator, window: int) -> Valuation:
    """Recompute the value of an element at a point from first principles:
    fresh anchor `window` positions further left, no caching.

    The window must be at least the order plus the spread of the singular
    offsets, so the shifted anchor is still left of every coefficient root.
    """
    modulus = modulus.normalized()
    r = modulus.order
    if element.dimension != r:
        raise PrecintError("element dimension does not match the operator order")
    orbit = point.orbit()
    if window < r + _singular_spread(modulus, orbit):
        raise PrecintError("window is too small for this operator")
    anchor = default_anchor(modulus, orbit) - window
    table = _fresh_solution_table(modulus, orbit, anchor,
                                  point.offset, point.offset + r - 1)
    return _element_val(element, table, orbit.value(), point.offset)


def _singular_spread(modulus: OreOperator, orbit: AlgebraicPoint) -> int:
    left, right = singular_points(modulus, orbit)
    offs = left + right
    return max(offs) - min(offs) if offs else 0


# ---------------------------------------------------------------------------
# Module equality of bases at a point
# ---------------------------------------------------------------------------


def _matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> List[List]:
    n, m, k = len(a), len(b[0]), len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = RationalFunction.zero()
            for t in range(k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def module_equal_at(a: BasisMatrix, b: BasisMatrix,
                    point: AlgebraicPoint) -> bool:
    """True when both bases generate the same module of local integral
    combinations at the point: the transition matrix T with A = T*B must
    have entries of nonnegative valuation and determinant of valuation 0."""
    norm = galois_norm_uniformizer(point)
    mb = b.coord_matrix()
    inv = _linalg.invert(mb)
    if inv is None:
        raise SingularTransitionError("second basis does not span the space")
    ma = a.coord_matrix()
    da = _linalg.determinant(ma)
    if da.is_zero:
        raise SingularTransitionError("first basis does not span the space")
    transition = _matmul(ma, inv)
    for row in transition:
        for entry in row:
            if not entry.is_zero and nu_at_factor(entry, norm) < 0:
                return False
    det = _linalg.determinant(transition)
    return nu_at_factor(det, norm) == 0


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


def _random_unit(rng: random.Random, norm: Poly) -> Tuple[Poly, int]:
    """A rational function with valuation exactly 0 at the point (and all of
    its conjugates), as its numerator and a shift c: the numerator is coprime
    to the point's minimal polynomial `norm`, and the denominator is 1 for
    c = 0 and otherwise the norm of the point shifted by c, a unit by
    construction."""
    while True:
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
        num = Poly(coeffs)
        if num.is_zero:
            continue
        if num.degree >= norm.degree and (num % norm).is_zero:
            continue
        break
    return num, rng.choice((0, 1, -1, 2))


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
    brute_val calls would compute; the table is simply built once.
    """
    modulus = modulus.normalized()
    r = modulus.order
    if basis.dimension != r:
        raise PrecintError("basis size does not match the operator order")
    orbit = point.orbit()
    if window is None:
        window = r + _singular_spread(modulus, orbit) + 2
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
    norm = galois_norm_uniformizer(point)
    norm_order, norm_unit = _split(norm.shift(z))
    unit_dens = {c: _split(galois_norm_uniformizer(point.shifted(c)).shift(z))
                 for c in (1, -1, 2)}
    unit_dens[0] = (0, Poly.one())
    rng = random.Random(seed)
    violations: List[CertificateViolation] = []
    for s in range(samples):
        exponents = tuple(rng.randint(-2, 2) for _ in range(r))
        # each coordinate is unit(z + q) * norm(z + q)^e, kept in factors
        coeffs_at_z = []
        for e in exponents:
            num, c = _random_unit(rng, norm)
            k_num, num = _split(num.shift(z))
            k_den, den = unit_dens[c]
            powers = (norm_unit,) * abs(e)
            coeffs_at_z.append((k_num - k_den + e * norm_order,
                                (num,) + (powers if e > 0 else ()),
                                (den,) + (powers if e < 0 else ())))
        value = INFINITY
        for j in range(r):
            terms = []
            for (order, nums, dens), row in zip(coeffs_at_z, row_terms):
                if row[j] is not None:
                    terms.append((order + row[j][0], nums + row[j][1],
                                  dens + row[j][2]))
            v = _lazy_order(terms)
            if v < value:
                value = v
        claimed = all(e >= 0 for e in exponents)
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
        p = Poly([Fraction(rng.randint(-height, height))
                  for _ in range(degree + 1)])
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
