"""Field tower: polynomials, rational functions, valuations, factorization,
orbit offsets, number fields, and Galois sums."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precint import (
    INFINITY,
    AlgebraicPoint,
    NumberField,
    Poly,
    RationalFunction,
    factor,
    galois_norm_uniformizer,
    galois_trace_sum,
    is_irreducible,
    nu_at_factor,
    nu_infinity,
)
from precint.ore import root_offsets
from conftest import coeff, op, random_rf

X = Poly.x()


def test_poly_strips_trailing_zeros_and_compares():
    assert Poly([1, 2, 0, 0]) == Poly([1, 2])
    assert Poly([0, 0]).is_zero
    assert Poly([1, 2]).degree == 1
    assert Poly([Fraction(1, 2)]) == Poly([Fraction(2, 4)])


def test_rational_function_canonical_form():
    f = RationalFunction(Poly([0, 2, 2]), Poly([0, 2]))  # (2x^2+2x)/(2x)
    assert f.num == Poly([1, 1])
    assert f.den == Poly([1])
    g = RationalFunction(Poly([1]), Poly([2]))  # monic denominator
    assert g.num == Poly([Fraction(1, 2)])
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Poly([1]), Poly([]))


# -- nu at a finite place ----------------------------------------------------


def test_nu_at_factor_strips_powers():
    f = RationalFunction(X ** 3, X + 1)
    assert nu_at_factor(f, X) == 3


def test_nu_at_factor_of_a_unit_is_zero():
    assert nu_at_factor(RationalFunction.constant(5), X - 1) == 0


def test_nu_at_factor_of_zero_is_infinite():
    assert nu_at_factor(RationalFunction.zero(), X) is INFINITY


def test_nu_at_factor_rejects_bad_moduli():
    with pytest.raises(ValueError):
        nu_at_factor(RationalFunction.one(), Poly([-1, 0, 1]))  # x^2-1 reducible
    with pytest.raises(ValueError):
        nu_at_factor(RationalFunction.one(), Poly([3]))


def test_nu_at_factor_negative_for_poles():
    f = RationalFunction(Poly.one(), X ** 2)
    assert nu_at_factor(f, X) == -2


# -- nu at infinity ----------------------------------------------------------


def test_nu_infinity_examples():
    assert nu_infinity(RationalFunction(Poly([1, 0, 1]), X ** 3)) == 1
    assert nu_infinity(RationalFunction.one()) == 0
    assert nu_infinity(RationalFunction(X)) == -1
    assert nu_infinity(RationalFunction.zero()) is INFINITY


# -- valuation axioms --------------------------------------------------------


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_valuation_axioms_all_three_kinds(seed):
    rng = random.Random(seed)
    places = [
        lambda f: nu_at_factor(f, X),
        lambda f: nu_at_factor(f, Poly([-2, 0, 1])),
        nu_infinity,
    ]
    for _ in range(25):
        f = random_rf(rng, nonzero=True)
        g = random_rf(rng, nonzero=True)
        for nu in places:
            assert nu(f * g) == nu(f) + nu(g)
            s = f + g
            lower = min(nu(f), nu(g))
            assert nu(s) >= lower
            if nu(f) != nu(g):
                assert nu(s) == lower


# -- factorization -----------------------------------------------------------


def test_factor_examples():
    assert factor(Poly([-1, 0, 1])) == ((Poly([-1, 1]), 1), (Poly([1, 1]), 1))
    assert factor(Poly([1, 2, 1])) == ((Poly([1, 1]), 2),)
    assert factor(Poly([-2, 0, 1])) == ((Poly([-2, 0, 1]), 1),)


def _has_rational_root(p: Poly) -> bool:
    # candidates a/b with a | constant term, b | leading term
    lead = p.leading
    const = p[0]
    if const == 0:
        return True
    nums = abs(const.numerator * lead.denominator)
    dens = abs(lead.numerator * const.denominator)
    for a in range(1, nums + 1):
        if nums % a:
            continue
        for b in range(1, dens + 1):
            if dens % b:
                continue
            for sign in (1, -1):
                if p.eval(Fraction(sign * a, b)) == 0:
                    return True
    return False


def test_factor_cache_is_bounded_and_still_hits():
    """The cache has a finite size that still holds one operation's working
    set: a repeated global run factors nothing anew."""
    from precint import ZSpec, global_integral_basis
    from precint.fields import FACTOR_CACHE_SIZE, _factor_cached

    assert _factor_cached.cache_info().maxsize == FACTOR_CACHE_SIZE
    operator = op("x^2 - 2 + x*S + (x+1)*S^2")
    zspec = ZSpec({"Z": 1, "-2+x^2": 1})
    first = global_integral_basis(operator, zspec).basis
    before = _factor_cached.cache_info()
    assert global_integral_basis(operator, zspec).basis == first
    after = _factor_cached.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits
    assert after.currsize <= FACTOR_CACHE_SIZE


@pytest.mark.parametrize("seed", [21, 22])
def test_factor_reconstructs_and_factors_are_irreducible(seed):
    rng = random.Random(seed)
    for _ in range(15):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))]
        p = Poly(coeffs + [Fraction(rng.randint(1, 4))])
        product = Poly.one()
        for fac, mult in factor(p):
            assert fac.leading == 1
            product = product * fac ** mult
            if 2 <= fac.degree <= 3:
                assert not _has_rational_root(fac)
        # product equals p up to the constant making p monic
        assert product * p.leading == p


# -- orbit offsets -------------------------------------------------------------


@pytest.mark.parametrize("seed", [31, 32])
def test_root_offsets_of_a_shifted_factor(seed):
    """A factor p(x - n) times a factor of the same degree on another orbit
    has exactly one root on the orbit of p, at n right of the roots of p.
    The other factor has none, also when its root differs from p's by a
    fraction (x - 1/2 against an integer orbit)."""
    rng = random.Random(seed)
    cases = [
        (Poly([Fraction(rng.randint(-5, 5)), 1]), Poly([Fraction(-1, 2), 1])),
        (Poly([-2, 0, 1]), Poly([-3, 0, 1])),
        (Poly([1, 1, 1]), Poly([-2, 0, 1])),  # x^2 + x + 1, irreducible
        (Poly([3, -1, 0, 1]), Poly([-2, 0, 0, 1])),
    ]
    for p, other in cases:
        orbit = AlgebraicPoint(p, 0).orbit()
        (s,) = root_offsets(p, orbit)
        assert orbit.min_poly.shift(-s) == p
        assert root_offsets(other, orbit) == ()
        for n in [0] + [rng.randint(-20, 20) for _ in range(10)]:
            assert root_offsets(p.shift(-n) * other, orbit) == (s + n,)


@pytest.mark.parametrize("nums, proven", [
    ([-3] + [0] * 12 + [1], True),         # x^13 - 3, at 3
    ([-2] + [0] * 99 + [1], True),         # x^100 - 2, at 2
    ([-6] + [0] * 12 + [3], True),         # 3*(x^13 - 2), at 2
    ([3, -3] + [0] * 11 + [-1, 1], False),  # (x^13 - 3)*(x - 1)
    ([-9] + [0] * 13 + [1], False),        # (x^7 - 3)*(x^7 + 3): 9 = 3^2
    ([0] * 13 + [1], False),               # x^13
    ([-1, -1] + [0] * 98 + [1], False),    # x^100 - x - 1: no prime
])
def test_eisenstein_proves_irreducibility_only_where_it_holds(nums, proven):
    """The refusal above MAX_FIELD_DEGREE speaks of a root's degree only on
    this proof, and a reducible polynomial never has it."""
    from precint import _zx

    assert _zx.eisenstein(Poly(nums).nums) is proven
    if proven and len(nums) <= 15:
        assert is_irreducible(Poly(nums))


# -- number fields -----------------------------------------------------------


def test_number_field_rejects_reducible_minimal_polynomial():
    with pytest.raises(ValueError):
        NumberField(Poly([-1, 0, 1]))


def test_nf_invert_examples():
    K = NumberField(Poly([-2, 0, 1]))
    t = K.generator
    assert t.inverse() == K.element([0, Fraction(1, 2)])
    assert K.one.inverse() == K.one
    assert (K.one + t).inverse() == t - 1
    with pytest.raises(ZeroDivisionError):
        K.zero.inverse()


@pytest.mark.parametrize("min_poly", [
    Poly([-2, 0, 1]),
    Poly([1, 0, 1]),
    Poly([-2, 0, 0, 1]),
    Poly([1, 0, -10, 0, 1]),  # minimal polynomial of sqrt(2)+sqrt(3)
])
def test_nf_invert_roundtrip(min_poly):
    K = NumberField(min_poly)
    rng = random.Random(hash(min_poly.coeffs) & 0xFFFF)
    count = 0
    while count < 25:
        a = K.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(K.degree)])
        if a.is_zero:
            continue
        assert a * a.inverse() == K.one
        count += 1


def test_nf_mixed_arithmetic_with_rationals():
    K = NumberField(Poly([-2, 0, 1]))
    t = K.generator
    assert (t + 1) * (t - 1) == K.one  # t^2 - 1 = 1
    assert Fraction(1, 2) * t + t == Fraction(3, 2) * t
    assert (2 / t) == t  # 2/sqrt(2) = sqrt(2)


def test_fields_built_separately_are_one_field():
    """A number field is its minimal polynomial: fields built apart from one
    polynomial are equal, hash equal, and their elements mix with those of
    the point's own field."""
    m = Poly([-2, 0, 0, 1])
    K, L = NumberField(m), NumberField(m)
    assert K == L and hash(K) == hash(L)
    z = AlgebraicPoint(m, 0).value()
    assert z.field == K and hash(z) == hash(L.generator)
    assert K.generator * z == L.generator ** 2
    assert (z - L.generator).is_zero and L.one + z == K.generator + 1
    assert K != NumberField(Poly([-2, 0, 1]))


def test_constants_of_two_number_fields_are_refused():
    """Exact constants from outside are read by `fields.from_exact`, which
    refuses elements of a second field as `NumberField._lift` does."""
    sqrt2 = NumberField(Poly([-2, 0, 1])).generator
    sqrt3 = NumberField(Poly([-3, 0, 1])).generator
    for build in (lambda: Poly([sqrt2, sqrt3]), lambda: Poly([1, sqrt3, Fraction(1, 2), sqrt2]),
                  lambda: Poly([sqrt2]) + Poly([0, sqrt3])):
        with pytest.raises(ValueError, match="mixing elements of different number fields"):
            build()
    assert Poly([sqrt2, Fraction(1, 2)]).coeffs == (sqrt2, sqrt2.field.from_rational(Fraction(1, 2)))


# -- Galois sums -------------------------------------------------------------


def test_galois_trace_sum_sqrt2_of_one():
    point = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    expected = RationalFunction(Poly([0, 2]), Poly([-2, 0, 1]))
    assert galois_trace_sum(1, point) == expected


def test_galois_trace_sum_sqrt2_of_generator():
    point = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    t = point.number_field().generator
    expected = RationalFunction(Poly([4]), Poly([-2, 0, 1]))
    assert galois_trace_sum(t, point) == expected


def test_galois_trace_sum_refuses_an_element_of_another_field():
    point = AlgebraicPoint(Poly([-2, 0, 0, 1]), 1)
    sqrt2 = NumberField(Poly([-2, 0, 1])).generator
    with pytest.raises(ValueError, match="mixing elements of different number fields"):
        galois_trace_sum(sqrt2, point)


def test_galois_trace_sum_rational_point():
    point = AlgebraicPoint.from_rational(-1)
    expected = RationalFunction(Poly([3]), Poly([1, 1]))
    assert galois_trace_sum(3, point) == expected


def test_galois_norm_uniformizer_examples():
    assert galois_norm_uniformizer(AlgebraicPoint(Poly([-2, 0, 1]), 0)) == Poly([-2, 0, 1])
    assert galois_norm_uniformizer(AlgebraicPoint(Poly([0, 1]), -1)) == Poly([1, 1])
    shifted = galois_norm_uniformizer(AlgebraicPoint(Poly([-2, 0, 1]), 1))
    assert shifted == Poly([-1, -2, 1])  # (x-1)^2 - 2


@pytest.mark.parametrize("min_poly,offset", [
    (Poly([-2, 0, 1]), 0),
    (Poly([-2, 0, 1]), 3),
    (Poly([1, 1, 1]), -2),
    (Poly([-2, 0, 0, 1]), 1),
    (Poly([Fraction(-1, 2), 1]), 4),
])
def test_trace_sum_of_one_times_norm_is_norm_derivative(min_poly, offset):
    point = AlgebraicPoint(min_poly, offset)
    norm = galois_norm_uniformizer(point)
    lhs = galois_trace_sum(1, point) * RationalFunction(norm)
    assert lhs == RationalFunction(norm.derivative())


# -- points and orbits --------------------------------------------------------


def test_rational_points_normalize_into_unit_interval():
    p = AlgebraicPoint.from_rational(Fraction(-3, 2))
    assert p.min_poly == Poly([Fraction(-1, 2), 1])
    assert p.offset == -2
    assert p.rational_value == Fraction(-3, 2)
    assert AlgebraicPoint.from_rational(7).min_poly == Poly.x()


def test_algebraic_point_normalization_uses_root_mean():
    # x+2 has root -2; its orbit representative is x with offset -2
    p = AlgebraicPoint(Poly([2, 1]), 0)
    assert p.min_poly == Poly.x()
    assert p.offset == -2
    assert p.orbit_key() == "Z"
    q = AlgebraicPoint(Poly([-1, -2, 1]), 0)  # roots 1 +- sqrt(2), mean 1
    assert q.min_poly == Poly([-2, 0, 1])
    assert q.offset == 1


def test_same_orbit_and_shifting():
    a = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    b = a.shifted(5)
    assert a.same_orbit(b)
    assert b.offset == 5
    assert not a.same_orbit(AlgebraicPoint(Poly([-3, 0, 1]), 0))
