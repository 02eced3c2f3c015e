"""The integer kernel of `fields` and `qvalues` against sympy over QQ.

Rational polynomials and q-series hold int numerators over one content-
reduced denominator.  Each kernel routine (product, division with
remainder, gcd with cofactors, Taylor shift, truncated quotient) is
compared with sympy's own arithmetic on random inputs with huge and with
non-integral coefficients, degrees 0 and 1 and negative leading
coefficients; equal values must compare and hash equal however they were
built.  Number-field elements are such polynomials reduced modulo the
minimal polynomial, and are compared with sympy's `rem` and `invert`.
Factorization over Q and the gcd run on their own integer routines (`_zx`),
so they are compared with sympy's `factor_list` and `gcd` too: sympy is the
oracle of these tests and is not needed by precint itself.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.specialpolys import swinnerton_dyer_poly

from precint import (
    AlgebraicPoint,
    NumberField,
    Poly,
    PrecintError,
    RationalFunction,
    cli,
    factor,
    galois_trace_sum,
    q_series,
    shifted_series,
)
from precint import _zx
from precint.exprs import poly_str
from precint.fields import (INFINITY, NFElem, field_quotient, multiply, packed_taylor, poly_gcd,
                            taylor_shift)
from precint.qvalues import ZERO, QSeries, fraction_series

X = sympy.Symbol("x")

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)

rationals = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 64)),
)


def polys(min_size: int = 0, max_size: int = 7):
    return st.lists(rationals, min_size=min_size, max_size=max_size).map(Poly)


nonzero_polys = polys(min_size=1).filter(lambda p: not p.is_zero)


def to_sympy(p: Poly) -> sympy.Poly:
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)] or [0], X, domain="QQ")


def from_sympy(s: sympy.Poly) -> Poly:
    return Poly([Fraction(int(c.p), int(c.q)) for c in reversed(s.all_coeffs())])


def assert_canonical(p: Poly) -> None:
    """No trailing zero numerator, a positive denominator sharing no factor
    with every numerator, and the exact coefficients rebuilt from them."""
    assert not p.nums or p.nums[-1] != 0
    assert p.den > 0
    assert math.gcd(p.den, *p.nums) == 1
    assert all(type(c) is int for c in p.nums)
    assert p.coeffs == tuple(Fraction(c, p.den) for c in p.nums)


def assert_packed(entry, field: NumberField) -> None:
    """A number-field element in the one form `==` and `hash` read: a tuple
    of int numerators in t of degree below the field's, no trailing zero,
    over a positive int denominator sharing no factor with them; zero has
    none, over 1.  Read from the element's own slots, not through `poly`,
    which would reduce it again."""
    assert type(entry) is NFElem and entry.field == field
    nums, den = entry.nums, entry.den
    assert type(nums) is tuple and type(den) is int
    assert all(type(c) is int for c in nums)
    assert len(nums) <= field.degree
    if not nums:
        assert den == 1
    else:
        assert nums[-1] and den > 0 and math.gcd(den, *nums) == 1


@SETTINGS
@given(polys(), polys())
@example(Poly([Fraction(-3, 4)]), Poly([Fraction(2, 3), -1]))
@example(Poly([2 ** 300, -(2 ** 301)]), Poly([Fraction(1, 2 ** 100), Fraction(-7, 5)]))
def test_product_and_sum_match_sympy(a, b):
    for value, expected in ((a * b, to_sympy(a) * to_sympy(b)),
                            (a + b, to_sympy(a) + to_sympy(b)),
                            (a - b, to_sympy(a) - to_sympy(b))):
        assert_canonical(value)
        assert value == from_sympy(expected)


@SETTINGS
@given(polys(), nonzero_polys)
@example(Poly([5, 0, 1]), Poly([1, -2]))
@example(Poly([Fraction(7, 3), 1, Fraction(-1, 2)]), Poly([Fraction(-5, 6)]))
@example(Poly([1, 2 ** 120, 3, -(2 ** 90)]), Poly([Fraction(-1, 3), 0, -(2 ** 70)]))
def test_divmod_matches_sympy(a, b):
    quotient, remainder = divmod(a, b)
    expected_q, expected_r = sympy.div(to_sympy(a), to_sympy(b))
    assert_canonical(quotient)
    assert_canonical(remainder)
    assert quotient == from_sympy(expected_q)
    assert remainder == from_sympy(expected_r)
    assert quotient * b + remainder == a


@SETTINGS
@given(polys(max_size=4), polys(max_size=4), polys(max_size=4))
@example(Poly([-1, 1]), Poly([1, 1]), Poly([-2, 1]))
@example(Poly([Fraction(1, 2), -3]), Poly([7]), Poly([0, 0, -5]))
def test_gcd_with_cofactors_matches_sympy(common, u, v):
    a, b = common * u, common * v
    g, ca, cb = poly_gcd(a, b)
    for p in (g, ca, cb):
        assert_canonical(p)
    expected = sympy.gcd(to_sympy(a), to_sympy(b))
    if a.is_zero and b.is_zero:
        assert g.is_zero
        return
    assert g == from_sympy(expected.monic())
    assert g.leading == 1
    assert g * ca == a
    assert g * cb == b
    assert poly_gcd(ca, cb)[0] == Poly.one()


@SETTINGS
@given(polys(max_size=4), polys(max_size=4), polys(max_size=4))
@example(Poly([-1, 1]), Poly([1, 1]), Poly([-2, 1]))
@example(Poly([2 ** 70, 3, 1]), Poly([Fraction(1, 5), -(2 ** 66)]), Poly([7, 0, 1]))
@example(Poly([2, 2]), Poly([3]), Poly([0, 6]))
def test_gcd_fallback_matches_sympy(common, u, v):
    """The primitive PRS gcd that takes over when the heuristic gives up,
    run directly on the int numerators and through `poly_gcd` with the
    heuristic given no evaluation point at all."""
    a, b = common * u, common * v
    if a.degree < 1 or b.degree < 1:
        return
    expected = from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)).monic())
    h, cf, cg = _zx.prs_gcd(a.nums, b.nums)
    assert h[-1] > 0
    assert math.gcd(*h) == math.gcd(*a.nums, *b.nums)
    assert Poly._of(h, h[-1]) == expected
    assert _zx._mul(h, cf) == list(a.nums) and _zx._mul(h, cg) == list(b.nums)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_zx, "_HEU_GCD_TRIES", 0)
        assert _zx.heu_gcd(a.nums, b.nums) is None
        g, ca, cb = poly_gcd(a, b)
    assert g == expected and g * ca == a and g * cb == b


int_lists = st.lists(st.one_of(st.integers(-9, 9), st.integers(-2 ** 100, 2 ** 100)),
                     max_size=7).map(_zx._trim)


@SETTINGS
@given(int_lists, int_lists.filter(bool), st.booleans())
@example([5, 0, 1], [1, -2], False)
@example([1, 2 ** 120, 3, -(2 ** 90)], [-7, 0, -(2 ** 70)], False)
@example([3, 1, 4, 1, 5], [2, 7, 1], True)
def test_pseudo_divmod_is_an_exact_pseudo_division(a, b, monic):
    """s*a = q*b + r over Z with len(r) < len(b), r trimmed and s > 0; s is
    1 when b is monic, and when b divides a, where q is the quotient."""
    if monic:
        b = b[:-1] + [1]
    q, r, s = _zx.pseudo_divmod(a, b)
    assert s > 0 and len(r) < len(b) and (not r or r[-1])
    assert _zx._add(_zx._mul(q, b), r) == [s * c for c in a]
    if monic:
        assert s == 1
    assert _zx.pseudo_divmod(_zx._mul(a, b), b) == (a, [], 1)


def sympy_factors(p: Poly) -> list:
    """sympy's factorization over QQ, each factor monic, in the order of
    `factor`: by degree, then by coefficients."""
    _, pairs = to_sympy(p).factor_list()
    out = [(from_sympy(f).monic(), m) for f, m in pairs]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def assert_factors_like_sympy(p: Poly) -> None:
    facs = factor(p)
    assert list(facs) == sympy_factors(p)
    product = Poly.constant(p.leading)
    for f, m in facs:
        assert f.leading == 1
        product = product * f ** m
    assert product == p


# irreducible over Q, some with coefficients above 2^64
IRREDUCIBLE = [(0, 1), (-2, 0, 1), (1, 1, 1), (-2, 0, 0, 1), (-1, -1, 0, 1),
               (Fraction(-1, 2), 0, 1), (3, 0, 0, 0, 1), (2 ** 65 + 1, 0, 1),
               (-(2 ** 70) - 3, 2 ** 64, 5), (1, 1, 1, 1, 1)]


@st.composite
def factored_products(draw) -> Poly:
    """A rational constant times shifted irreducible factors, each to a
    power up to 3."""
    p = Poly([draw(st.sampled_from([Fraction(1), Fraction(-3, 7), Fraction(2 ** 70, 3),
                                    Fraction(5)]))])
    for _ in range(draw(st.integers(1, 4))):
        base = Poly(draw(st.sampled_from(IRREDUCIBLE)))
        p = p * base.shift(draw(st.integers(-3, 3))) ** draw(st.integers(1, 3))
    return p


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(factored_products(), polys(min_size=2, max_size=6)))
@example(Poly([Fraction(-1, 2), 0, 2]))
@example(Poly([0, 0, 0, 2 ** 80, -(2 ** 81)]))
def test_factor_matches_sympy(p):
    if p.degree < 1:
        return
    assert_factors_like_sympy(p)


@pytest.mark.parametrize("n", range(1, 31))
def test_factor_of_x_to_the_n_minus_one_matches_sympy(n):
    assert_factors_like_sympy(Poly([-1] + [0] * (n - 1) + [1]))


def swinnerton_dyer(k: int) -> Poly:
    """The minimal polynomial of the sum of the square roots of the first k
    primes, degree 2^k: irreducible over Q, but a product of factors of
    degree at most 2 modulo every prime."""
    return from_sympy(sympy.Poly(swinnerton_dyer_poly(k, X), X, domain="QQ"))


@pytest.mark.parametrize("k", [2, 3])
def test_factor_of_swinnerton_dyer_polynomials(k):
    p = swinnerton_dyer(k)
    assert p.degree == 2 ** k
    assert_factors_like_sympy(p)
    assert factor(p) == ((p, 1),)
    assert factor(p * p.shift(1)) == tuple(sorted(
        [(p, 1), (p.shift(1), 1)], key=lambda fm: (fm[0].degree, fm[0].coeffs)))


def test_recombination_past_its_limit_is_refused_at_once(capsys):
    """Swinnerton-Dyer of degree 32 splits into at least 16 factors modulo
    every prime, over the limit of `_zx.MAX_MODULAR_FACTORS`: the
    factorization and a run that needs it end with an error naming the
    limit, within seconds."""
    p = swinnerton_dyer(5)
    assert _zx.MAX_MODULAR_FACTORS < 16
    start = time.perf_counter()
    with pytest.raises(PrecintError, match=f"limit of {_zx.MAX_MODULAR_FACTORS}"):
        factor(p)
    code = cli.main(["global-basis", "--operator", poly_str(p, "x") + " + S"])
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: factoring a polynomial of degree 32")
    assert f"limit of {_zx.MAX_MODULAR_FACTORS}" in captured.err


@SETTINGS
@given(polys(), rationals)
@example(Poly([3]), Fraction(-5, 7))
@example(Poly([1, -(2 ** 100)]), Fraction(2 ** 65, 3))
def test_taylor_shift_matches_sympy(p, z):
    shifted = p.shift(z)
    assert_canonical(shifted)
    expected = sympy.Poly(to_sympy(p).as_expr().subs(X, X + sympy.Rational(
        z.numerator, z.denominator)), X, domain="QQ")
    assert shifted == from_sympy(expected)


def _order(s: sympy.Poly) -> int:
    return min(m[0] for m in s.monoms())


def _series_coefficients(num: sympy.Poly, den: sympy.Poly, terms: int):
    """The first `terms` coefficients of num/den from its valuation on: the
    units of num and den (their powers of q removed) times the inverse of
    the second modulo q^terms, all in sympy."""
    modulus = sympy.Poly(X ** terms, X, domain="QQ")
    n_unit = sympy.Poly(num.as_expr() / X ** _order(num), X, domain="QQ")
    d_unit = sympy.Poly(den.as_expr() / X ** _order(den), X, domain="QQ")
    product = (n_unit * sympy.invert(d_unit, modulus)).rem(modulus)
    coeffs = product.all_coeffs()[::-1]
    coeffs += [0] * (terms - len(coeffs))
    return [Fraction(int(c.p), int(c.q)) for c in map(sympy.Rational, coeffs)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nonzero_polys, nonzero_polys, st.integers(1, 6))
@example(Poly([0, 0, Fraction(3, 7), -1]), Poly([0, -2, 5]), 4)
@example(Poly([2 ** 90, -1]), Poly([Fraction(-3, 2 ** 40), 1, 1]), 6)
def test_truncated_quotient_matches_sympy(num, den, terms):
    series = fraction_series(num, den, terms)
    assert series.den > 0 and math.gcd(series.den, *series.nums) == 1
    sn, sd = to_sympy(num), to_sympy(den)
    order = _order(sn) - _order(sd)
    assert series.valuation == order
    assert series.prec == order + terms
    assert series.coeffs == _series_coefficients(sn, sd, terms)
    reduced = RationalFunction(num, den)
    assert q_series(reduced, terms).coeffs == series.coeffs


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nonzero_polys, nonzero_polys, rationals, st.integers(1, 5))
@example(Poly([-1, 0, 1]), Poly([2, -3, 1]), Fraction(1), 3)
def test_shifted_series_matches_sympy(num, den, z, terms):
    f = RationalFunction(num, den)
    series = shifted_series(f, z, terms)
    shift = sympy.Rational(z.numerator, z.denominator)
    sn = sympy.Poly(to_sympy(f.num).as_expr().subs(X, X + shift), X, domain="QQ")
    sd = sympy.Poly(to_sympy(f.den).as_expr().subs(X, X + shift), X, domain="QQ")
    order = _order(sn) - _order(sd)
    assert series.valuation == order
    assert series.coeffs == _series_coefficients(sn, sd, terms)


@SETTINGS
@given(polys(), st.integers(1, 2 ** 70), st.integers(-(2 ** 70), 2 ** 70))
def test_equal_values_compare_and_hash_equal(p, k, m):
    """However a value is reached (scaled numerators over a scaled
    denominator, a detour through a sum, a quotient by a unit) it is held
    the same way."""
    scaled = Poly._of([c * k for c in p.nums], p.den * k)
    detour = (p + Poly([m, 1])) - Poly([m, 1])
    unit = Fraction(m or 1, k)
    divided = (p * Poly([unit])) // Poly([unit])
    for q in (scaled, detour, divided, Poly(p.coeffs)):
        assert_canonical(q)
        assert (q.nums, q.den) == (p.nums, p.den)
        assert q == p and hash(q) == hash(p)
    if not p.is_zero:
        f = RationalFunction(p, Poly([1, 1]))
        g = RationalFunction(p * Poly([unit, unit]), Poly([unit, unit]) * Poly([1, 1]))
        assert f == g and hash(f) == hash(g)


# Q(sqrt 2), Q(2^(1/3)), the cubic field of x^3 - x - 1, and the field of
# x^2 - 1/2, whose minimal polynomial has a non-integral coefficient
FIELDS = [NumberField(Poly(m)) for m in ([-2, 0, 1], [-2, 0, 0, 1], [-1, -1, 0, 1],
                                         [Fraction(-1, 2), 0, 1])]


@st.composite
def field_elements(draw, count: int):
    """A field of FIELDS and `count` elements of it from rational coordinates."""
    field = draw(st.sampled_from(FIELDS))
    coords = st.lists(rationals, max_size=field.degree)
    return field, [field.element(draw(coords)) for _ in range(count)]


def reduced(p: sympy.Poly, field: NumberField) -> Poly:
    return from_sympy(p.rem(to_sympy(field.min_poly)))


def sympy_trace(a: sympy.Poly, m: Poly) -> Fraction:
    """The trace of multiplication by a in Q[t]/(m) on the power basis 1, t,
    ..., t^(d-1): the sum of the t^j coordinates of a*t^j reduced in sympy."""
    t, sm = sympy.Poly(X, X, domain="QQ"), to_sympy(m)
    return sum((from_sympy((a * t ** j).rem(sm))[j] for j in range(m.degree)),
               Fraction(0))


@SETTINGS
@given(field_elements(2))
@example((FIELDS[1], [FIELDS[1].element([0, 0, 1]), FIELDS[1].element([0, 0, 1])]))
@example((FIELDS[3], [FIELDS[3].element([Fraction(1, 3), 2 ** 100]),
                      FIELDS[3].element([0, Fraction(-5, 7)])]))
def test_number_field_arithmetic_matches_sympy(case):
    field, (a, b) = case
    sa, sb = to_sympy(a.poly), to_sympy(b.poly)
    for value, expected in ((a + b, reduced(sa + sb, field)),
                            (a - b, reduced(sa - sb, field)),
                            (a * b, reduced(sa * sb, field))):
        assert value.field is field
        assert_packed(value, field)
        assert value.poly == expected
    if not a.is_zero:
        inverse = a.inverse()
        assert_packed(inverse, field)
        assert inverse.poly == from_sympy(sympy.invert(sa, to_sympy(field.min_poly)))
        assert a * inverse == field.one


@SETTINGS
@given(field_elements(2), rationals)
def test_equal_elements_compare_and_hash_equal(case, c):
    """An element reached by arithmetic, by its coordinates or from a
    rational is held the same way."""
    field, (a, b) = case
    routes = [(a + b) - b, -(-a), a * field.one + field.zero,
              field.element(a.poly.coeffs)]
    if not b.is_zero:
        routes.append(a * b / b)
    for e in routes:
        assert (e.nums, e.den) == (a.nums, a.den)
        assert e == a and hash(e) == hash(a)
    rational = field.from_rational(c)
    t = field.generator
    for e in (field.element([c]), field.one * c, field.zero + c, t * c / t,
              (t + c) - t):
        assert e == rational and hash(e) == hash(rational)
    assert rational == c


# the points of the sum: the fields above, Q(3^(1/8)), and rational points
TRACE_MIN_POLYS = [field.min_poly for field in FIELDS] + [
    Poly([-3, 0, 0, 0, 0, 0, 0, 0, 1]), Poly([0, 1]), Poly([Fraction(-1, 3), 1])]


@st.composite
def conjugate_sums(draw):
    """A point of one of TRACE_MIN_POLYS at a nonzero offset, and the
    coordinates of g in the power basis of its minimal polynomial."""
    m = draw(st.sampled_from(TRACE_MIN_POLYS))
    offset = draw(st.integers(-5, 5).filter(bool))
    return AlgebraicPoint(m, offset), draw(st.lists(rationals, max_size=m.degree))


@SETTINGS
@given(conjugate_sums(), st.lists(rationals, min_size=1, max_size=3))
@example((AlgebraicPoint(Poly([-2, 0, 1]), 3), [Fraction(1)]),
         [Fraction(0), Fraction(1, 2)])
@example((AlgebraicPoint(TRACE_MIN_POLYS[4], -4), [Fraction(-7, 5), 0, 2 ** 70]),
         [Fraction(1, 9)])
@example((AlgebraicPoint(Poly([0, 1]), -2), [Fraction(3, 4)]), [Fraction(2)])
def test_galois_trace_sum_is_the_trace_of_g_over_x_minus_z(case, xs):
    """sum_sigma sigma(g)/(x - sigma(z)) at rational x is the trace of
    g/(x - z) in Q[t]/(m), computed in sympy, at points of degree 1, 2, 3
    and 8 with offsets of both signs."""
    point, coords = case
    m, offset = point.min_poly, point.offset
    if point.is_rational:
        g = coords[0] if coords else 0
    else:
        field = NumberField(m)
        assert point.number_field() == field
        g = field.element(coords)
    f = galois_trace_sum(g, point)
    t = sympy.Poly(X, X, domain="QQ")
    for x in xs:
        if point.is_rational and x == point.rational_value:
            continue  # the pole of the sum
        # g/(x - z) in Q[t]/(m), with z = t + offset
        quotient = to_sympy(Poly(coords)) * sympy.invert(
            sympy.Poly(x - offset, X, domain="QQ") - t, to_sympy(m))
        assert f.num.eval(x) / f.den.eval(x) == sympy_trace(quotient, m)


# Number-field lists on the packed kernel.  Products of lists, Taylor shifts
# at t + n and series quotients over a field compute each coefficient as one
# int polynomial in t over its own denominator and reduce it once; here each
# is recomputed in sympy as a polynomial in x and t, reduced mod m(t) at the
# end.  `verify` shares this kernel with the main path; sympy shares nothing
# with either.

T = sympy.Symbol("t")
EIGHTH = NumberField(Poly([-3, 0, 0, 0, 0, 0, 0, 0, 1]))  # Q(3^(1/8))
KERNEL_FIELDS = FIELDS + [EIGHTH]
KERNEL_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)

# large, pairwise coprime denominators, so no two coefficients share one
COPRIME_DENS = [2 ** 61 - 1, 10 ** 9 + 7, 3 ** 41, 5 ** 29, 7 * 11 * 13 * 17]
coordinates = st.one_of(
    rationals,
    st.builds(Fraction, st.integers(-2 ** 90, 2 ** 90), st.sampled_from(COPRIME_DENS)))


@st.composite
def field_lists(draw, count: int, max_size: int = 5):
    """A field of KERNEL_FIELDS and `count` nonempty lists of its elements,
    some of them zero."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    element = st.lists(coordinates, max_size=field.degree).map(field.element)
    return field, [draw(st.lists(element, min_size=1, max_size=max_size))
                   for _ in range(count)]


def in_x_and_t(values) -> sympy.Poly:
    """Coefficients of powers of x (number-field elements, `Poly`s in t or
    rationals) as a sympy polynomial in x and t."""
    terms = {}
    for k, c in enumerate(values):
        if isinstance(c, NFElem):
            c = c.poly
        for i, a in enumerate(c.coeffs if isinstance(c, Poly) else (Fraction(c),)):
            if a:
                terms[k, i] = sympy.Rational(a.numerator, a.denominator)
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, X, T, domain="QQ")


def shifted_by(p: sympy.Poly, z: NFElem) -> sympy.Poly:
    """p(x + z, t) by Horner's rule in sympy, z an element as a polynomial
    in t."""
    step = sympy.Poly(X, X, T, domain="QQ") + in_x_and_t([z])
    acc = sympy.Poly(0, X, T, domain="QQ")
    for k in range(p.degree(X), -1, -1):
        coeff = {(0, j): c for (i, j), c in p.terms() if i == k}
        acc = acc * step + sympy.Poly.from_dict(coeff or {(0, 0): 0}, X, T, domain="QQ")
    return acc


def reduced_coefficients(p: sympy.Poly, field: NumberField) -> list:
    """The coefficients in x of a polynomial in x and t, lowest first, each
    reduced mod the minimal polynomial in t, as `Poly`s in t."""
    m = sympy.Poly(list(reversed(field.min_poly.coeffs)), T, domain="QQ")
    if p.is_zero:
        return []
    rows = [{} for _ in range(p.degree(X) + 1)]
    for (i, j), c in p.terms():
        rows[i][(j,)] = c
    return [from_sympy(sympy.Poly.from_dict(row or {(0,): 0}, T, domain="QQ").rem(m))
            for row in rows]


def assert_elements(values, expected: list, field: NumberField) -> None:
    """Elements of the field, canonical, equal to the reduced coefficients
    (missing ones zero)."""
    expected = expected + [Poly.zero()] * (len(values) - len(expected))
    assert len(values) == len(expected)
    for c, e in zip(values, expected):
        assert_packed(c, field)
        assert c.poly == e


@KERNEL_SETTINGS
@given(field_lists(2), st.integers(0, 10))
@example((EIGHTH, [[EIGHTH.element([Fraction(2 ** 80 + 1, 2 ** 61 - 1), 0, 0, 0, 0, 0, 0,
                                    Fraction(-1, 10 ** 9 + 7)])] * 3,
                   [EIGHTH.element([1, Fraction(5, 3 ** 41)] * 4), EIGHTH.zero,
                    EIGHTH.element([0] * 7 + [Fraction(2 ** 90, 5 ** 29)])]]), 4)
@example((FIELDS[3], [[FIELDS[3].element([Fraction(1, 3), 2 ** 100])],
                      [FIELDS[3].element([0, Fraction(-5, 7)]), FIELDS[3].one]]), 1)
def test_products_of_number_field_lists_match_sympy(case, n):
    """Products of number-field lists as `Poly`s, as `QSeries` (cut off at
    the shorter operand) and by `multiply` with and without a cut-off n,
    also against a list of ints over a denominator."""
    field, (a, b) = case
    expected = reduced_coefficients(in_x_and_t(a) * in_x_and_t(b), field)
    size = len(a) + len(b) - 1
    assert_elements(list((Poly(a) * Poly(b)).nums), expected, field)
    assert multiply(a, 1, b, 1)[1] == 1
    assert_elements(multiply(a, 1, b, 1)[0], expected[:size], field)
    assert_elements(multiply(a, 1, b, 1, n)[0], expected[:min(n, size)], field)
    ints = [3, 0, -(2 ** 70)]
    with_ints = reduced_coefficients(
        in_x_and_t([Fraction(c, 7) for c in ints]) * in_x_and_t(b), field)
    assert_elements(multiply(ints, 7, b, 1, n)[0], with_ints[:min(n, len(b) + 2)], field)
    if a[0] and b[0]:  # series known from q^0, so cut off at the shorter
        height = (100, 0, 0)
        product = QSeries(0, a, None, len(a), height) * QSeries(0, b, None, len(b), height)
        assert product.prec == min(len(a), len(b))
        assert_elements(product.coeffs, expected[:product.prec], field)


@KERNEL_SETTINGS
@given(st.sampled_from(KERNEL_FIELDS),
       st.lists(coordinates, min_size=2, max_size=7).filter(lambda cs: Poly(cs).degree >= 1),
       st.integers(-5, 5), st.one_of(st.none(), st.integers(1, 4)))
@example(EIGHTH, [Fraction(1, 2 ** 61 - 1), 0, Fraction(-7, 10 ** 9 + 7), 1, 2 ** 80], -4, 2)
@example(FIELDS[3], [Fraction(-1, 2), 0, 2], 3, 1)  # 2t^2 - 1 vanishes at t
@example(FIELDS[0], [-2, 0, 1], -3, 1)  # x^2 - 2 at t - 3, shifted by 3
def test_number_field_taylor_shift_matches_sympy(field, coords, n, terms):
    """p(x + t + n) for p over Q and over the field, with the `terms`
    cut-off: it stops once `terms` coefficients from the first nonzero one
    on are known; also at a point 2t/3 + n/5 with a denominator."""
    unit = field.element([Fraction(1, 3), Fraction(2, 5)])
    for z in (field.generator + n, field.generator * Fraction(2, 3) + Fraction(n, 5)):
        for p in (Poly(coords), Poly(coords) * unit):
            expected = reduced_coefficients(shifted_by(in_x_and_t(p.coeffs), z), field)
            values, den = taylor_shift(p, z, terms)
            assert den == 1
            lead = next(k for k, e in enumerate(expected) if not e.is_zero)
            length = p.degree + 1 if terms is None else min(p.degree + 1, lead + terms)
            assert_elements(values, expected[:length], field)


@KERNEL_SETTINGS
@given(field_lists(2, max_size=4), st.integers(1, 5))
@example((FIELDS[3], [[FIELDS[3].zero, FIELDS[3].element([Fraction(3, 2 ** 61 - 1), 1])],
                      [FIELDS[3].element([0, Fraction(1, 10 ** 9 + 7)]),
                       FIELDS[3].element([5])]]), 5)
def test_number_field_fraction_series_matches_sympy(case, terms):
    """num/den for polynomials in q over the field: the valuation is the
    difference of orders, and the coefficients times the unit of den agree
    with the unit of num modulo q^terms, reduced in sympy."""
    field, (num, den) = case
    num, den = Poly(num), Poly(den)
    if den.is_zero or num.is_zero:
        return
    series = fraction_series(num, den, terms)
    assert_series_quotient(series, in_x_and_t(num.coeffs), in_x_and_t(den.coeffs),
                           field, terms)


@KERNEL_SETTINGS
@given(st.sampled_from(KERNEL_FIELDS), nonzero_polys, nonzero_polys,
       st.integers(-5, 5), st.integers(1, 5))
@example(FIELDS[0], Poly([-2, 0, 1]), Poly([Fraction(1, 2 ** 61 - 1), 1]), 0, 3)
@example(EIGHTH, Poly([1, 0, 0, 0, 0, 0, 0, 0, 1]), Poly([-3, 0, 0, 0, 0, 0, 0, 0, 1]), 2, 4)
def test_number_field_shifted_series_matches_sympy(field, num, den, n, terms):
    """f(t + n + q) for f in Q(x), and for f over the field."""
    f = RationalFunction(num, den)
    unit = field.element([Fraction(1, 7), 1])
    for f in (f, RationalFunction(f.num * unit, f.den, _coprime=True)):
        series = shifted_series(f, field.generator + n, terms)
        sn, sd = (shifted_by(in_x_and_t(p.coeffs), field.generator + n)
                  for p in (f.num, f.den))
        assert_series_quotient(series, sn, sd, field, terms)


def assert_series_quotient(series, num: sympy.Poly, den: sympy.Poly,
                           field: NumberField, terms: int) -> None:
    ns, ds = reduced_coefficients(num, field), reduced_coefficients(den, field)
    a = next(k for k, c in enumerate(ns) if not c.is_zero)
    b = next(k for k, c in enumerate(ds) if not c.is_zero)
    assert series.valuation == a - b
    assert series.prec == a - b + terms
    coeffs = [series.coefficient(a - b + k) for k in range(terms)]
    assert coeffs[0] != 0
    residual = reduced_coefficients(
        in_x_and_t(coeffs) * in_x_and_t(ds[b:]) - in_x_and_t(ns[a:]), field)
    assert all(c.is_zero for c in residual[:terms])


@KERNEL_SETTINGS
@given(polys(), st.lists(st.lists(coordinates, max_size=2), min_size=1, max_size=5),
       st.booleans())
@example(Poly([-2, 0, 1]), [[0, -1], [1]], False)  # x^2 - 2 = (x - t)(x + t)
@example(Poly([Fraction(1, 3), 2 ** 70]), [[Fraction(-5, 7), 1], [0, 2], [3]], True)
def test_division_between_q_and_a_number_field_matches_sympy(p, coords, rational_divisor):
    """divmod of a polynomial over Q by one over Q(sqrt 2), and the other
    way round: both operands are lifted into the field
    (`NumberField._lift`) and divided there.  sympy checks a = q*b + r in
    Q[x, t] modulo t^2 - 2, which with deg r < deg b makes q and r the
    quotient and the remainder."""
    field = FIELDS[0]
    f = Poly([field.element(cs) for cs in coords])
    a, b = (f, p) if rational_divisor else (p, f)
    if b.is_zero:
        return
    q, r = divmod(a, b)
    assert r.degree < b.degree
    residual = reduced_coefficients(in_x_and_t(q.coeffs) * in_x_and_t(b.coeffs)
                                    + in_x_and_t(r.coeffs) - in_x_and_t(a.coeffs), field)
    assert all(c.is_zero for c in residual)
    if a.degree >= b.degree:
        for c in q.nums + r.nums:
            assert_packed(c, field)


# The kernel itself: the int inverse, the Taylor coefficients by Hasse
# derivatives and series over a field, whose coefficients are elements held
# in the one canonical form.  Degree 1 (x - 3/2), the fields above and a
# cubic with non-integral coefficients.
LINEAR = NumberField(Poly([Fraction(-3, 2), 1]))
ODD_CUBIC = NumberField(Poly([Fraction(-1, 3), Fraction(1, 2), Fraction(-5, 7), 1]))
PACKED_FIELDS = [LINEAR] + KERNEL_FIELDS + [ODD_CUBIC]


@KERNEL_SETTINGS
@given(st.sampled_from(PACKED_FIELDS), st.lists(coordinates, max_size=8))
def test_int_inverse_matches_sympy(field, coords):
    """The inverse from the int system of multiplication, against sympy's
    `invert`, over fields of degree 1, 2, 3 and 8 (also x^2 - 1/2 and a
    cubic with non-integral coefficients), for a drawn element, the
    generator and a unit with large coprime denominators; zero has none."""
    unit = [Fraction(2 ** 80 + 1, 2 ** 61 - 1), 0, Fraction(-1, 10 ** 9 + 7)]
    m = to_sympy(field.min_poly)
    for a in (field.element(coords[:field.degree]), field.generator,
              field.element(unit[:field.degree])):
        if a.is_zero:
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        inverse = field._inverse(a.nums, a.den)
        assert_packed(inverse, field)
        assert (a.inverse().nums, a.inverse().den) == (inverse.nums, inverse.den)
        assert inverse.poly == from_sympy(sympy.invert(to_sympy(a.poly), m))
        assert a * inverse == field.one
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


@KERNEL_SETTINGS
@given(st.sampled_from(PACKED_FIELDS),
       st.lists(coordinates, min_size=1, max_size=6).filter(lambda cs: any(cs)),
       st.integers(-5, 5), st.one_of(st.none(), st.integers(1, 4)))
@example(EIGHTH, [Fraction(1, 2 ** 61 - 1), 0, Fraction(-7, 10 ** 9 + 7), 1, 2 ** 80], -5, None)
@example(FIELDS[0], [-2, 0, 1], -3, 1)  # x^2 - 2 at t - 3, shifted by 3
@example(ODD_CUBIC, [1, 0, 0, 1], 5, 2)
def test_packed_taylor_matches_sympy(field, coords, c, terms):
    """The packed Taylor coefficients of p(x + z) against sympy, for p over
    Q and over the field: at t + c for every c in [-5, 5] and at t + c/2
    (the Hasse derivatives after a shift on ints), and at 2t/3 + c/5 (by
    Horner's rule), truncated and in full."""
    unit = field.element([Fraction(1, 3), Fraction(2, 5)][:field.degree])
    t = field.generator
    for z in (t + c, t + Fraction(c, 2), t * Fraction(2, 3) + Fraction(c, 5)):
        for p in (Poly(coords), Poly(coords) * unit):
            expected = reduced_coefficients(shifted_by(in_x_and_t(p.coeffs), z), field)
            packed = packed_taylor(p, z, field, terms)
            for entry in packed:
                assert_packed(entry, field)
            lead = next((k for k, e in enumerate(expected) if not e.is_zero), 0)
            length = p.degree + 1 if terms is None else min(p.degree + 1, lead + terms)
            expected += [Poly.zero()] * (length - len(expected))
            assert [e.poly for e in packed] == expected[:length]


@KERNEL_SETTINGS
@given(st.sampled_from(PACKED_FIELDS), st.lists(coordinates, max_size=8),
       st.lists(coordinates, max_size=8), coordinates,
       st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=12),
       st.integers(1, 2 ** 40))
@example(FIELDS[0], [Fraction(1, 2), Fraction(3, 2)], [Fraction(1, 2)], Fraction(1, 2),
         [6, 0, 4, 2], 4)
def test_every_element_is_built_in_canonical_form(field, ca, cb, c, ints, den):
    """`==` and `hash` read an element's numerators as they are, so every
    path that builds one returns the canonical form: arithmetic with
    element, int and Fraction operands on either side, the constructors and
    the kernels, also where a sum cancels the top numerator or leaves a
    common factor of numerators and denominator."""
    a, b = field.element(ca[:field.degree]), field.element(cb[:field.degree])
    n = math.floor(c)
    built = [a + b, a - b, a * b, -a, a - a, a + c, c + a, a - c, c - a, a * c, c * a,
             a + n, n + a, a - n, n - a, a * n, n * a, a ** 2, a * 0,
             field.from_rational(c), field.from_rational(n), field.element(ca[:field.degree]),
             field.zero, field.one, field.generator]
    for x in (a, b):
        if not x:
            continue
        top = field.element([0] * (len(x.nums) - 1) + [Fraction(x.nums[-1], x.den)])
        half = x * Fraction(1, 2)
        built += [x - top, top - x, half + half, half + x * Fraction(1, 2) - x,
                  x.inverse(), x ** -1, a / x, c / x, n / x]
        if c:
            built.append(x / c)
    built += field._lift(ints + [0, 2 * den], den) + field._lift([a, b], 1)
    built += [field._reduce(list(ints), den), field._reduce(list(ints), -den)]
    if a:
        built.append(field._inverse(a.nums, a.den))
    for z in (field.generator + n, field.generator * c + Fraction(1, 3)):
        for p in (Poly(ca), Poly(ca) * field.element([Fraction(1, 3), 2][:field.degree])):
            built += packed_taylor(p, z, field) + packed_taylor(p, z, field, 1)
    if b:
        built += field_quotient(field, [a, field.one, b], [b, a], 4)
    for e in built:
        assert_packed(e, field)


def reference_terms(s) -> dict:
    """The coefficients a series claims, by power, as exact values."""
    if s.is_zero:
        return {}
    return {n: s.coefficient(n) for n in range(s.val, s.prec)}


def assert_series_as(s, terms: dict, lo: int, prec, height, field) -> None:
    """s is the series with these coefficients from q^lo up to O(q^prec)
    and this height: exactly zero only when every one is zero past the
    height's bound; a series over the field holds packed residues."""
    assert s.height == height or s.is_zero
    values = [terms.get(n, 0) for n in range(lo, prec)] if prec is not INFINITY else []
    if s.is_zero:
        assert not any(values)
        assert prec is INFINITY or prec > height[0] - height[2]
        return
    assert s.prec == prec
    assert [s.coefficient(n) for n in range(lo, prec)] == values
    assert s.known == any(values)
    if s.nums and type(s.nums[0]) is NFElem:
        assert s.den == 1
        for entry in s.nums:  # every entry an element of the field
            assert_packed(entry, field)
    else:
        assert all(type(c) is int for c in s.nums)


@st.composite
def packed_series(draw, field: NumberField, over_field: bool):
    """A series over the field or over Q, in one of the three states:
    known from its valuation on, zero to its precision, or ZERO."""
    state = draw(st.sampled_from(["known", "known", "zero", "ZERO"]))
    if state == "ZERO":
        return ZERO
    val = draw(st.integers(-2, 2))
    height = (draw(st.integers(0, 8)), draw(st.integers(0, 3)), draw(st.integers(0, 2)))
    if over_field:
        value = st.lists(coordinates, max_size=field.degree).map(field.element)
    else:
        value = coordinates
    length = draw(st.integers(1, 4))
    if state == "zero":
        values = [field.zero if over_field else 0] * length
    else:
        values = draw(st.lists(value, min_size=length, max_size=length))
        if not values[0]:
            values[0] = field.one if over_field else Fraction(1)
    return QSeries(val, values, None, val + length, height)


@SETTINGS
@given(st.sampled_from(PACKED_FIELDS), st.booleans(), st.data())
def test_packed_series_arithmetic_matches_elements(field, mixed, data):
    """+, -, * and a constant * of series over a field, packed, against the
    same operations on their `NFElem` coefficients, with precision and
    height as the rules of qvalues give them; the second operand is over Q
    when `mixed` (int lists appear at algebraic points for constant
    coordinates)."""
    a = data.draw(packed_series(field, True))
    b = data.draw(packed_series(field, not mixed))
    ta, tb = reference_terms(a), reference_terms(b)
    ha, hb = a.height, b.height
    for x, y, tx, ty in ((a, b, ta, tb), (b, a, tb, ta)):
        for sign in (1, -1):
            total = x + y if sign == 1 else x - y
            if x.is_zero or y.is_zero:
                other, terms = (y, ty) if x.is_zero else (x, tx)
                expected = {n: sign * c if other is y else c for n, c in terms.items()}
                assert reference_terms(total) == expected
                continue
            prec = min(x.prec, y.prec)
            height = (max(ha[0] + hb[1], hb[0] + ha[1]), ha[1] + hb[1], ha[2] + hb[2])
            terms = {n: tx.get(n, 0) + sign * ty.get(n, 0) for n in range(min(x.val, y.val), prec)}
            assert_series_as(total, terms, min(x.val, y.val), prec, height, field)
        product = x * y
        if x.is_zero or y.is_zero:
            assert product.is_zero
            continue
        prec = min(x.prec + y.val, y.prec + x.val)
        height = tuple(i + j for i, j in zip(ha, hb))
        terms = {n: sum((c * ty.get(n - i, 0) for i, c in tx.items()), Fraction(0))
                 for n in range(x.val + y.val, prec)}
        assert_series_as(product, terms, x.val + y.val, prec, height, field)
    coords = data.draw(st.lists(coordinates, max_size=field.degree))
    for c in (field.element(coords), Fraction(-7, 3), 5, 0):
        scaled = a * c
        if a.is_zero or not c:
            assert scaled.is_zero
            continue
        terms = {n: v * c for n, v in ta.items()}
        assert_series_as(scaled, terms, a.val, a.prec, a.height, field)
