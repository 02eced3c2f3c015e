"""The q-adic valuation, single Laurent coefficients, and the x -> z + q
substitution."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from precint import (
    INFINITY,
    Poly,
    RationalFunction,
    nu_at_factor,
    nu_q,
    q_coefficient,
)
from conftest import random_poly, random_rf

Q = Poly.x()  # the same dense representation serves the variable q


def test_nu_q_examples():
    f = RationalFunction(Q * (Q - 1), Q + 1)
    assert nu_q(f) == 1
    assert nu_q(RationalFunction.constant(Fraction(7, 3))) == 0
    assert nu_q(RationalFunction.zero()) is INFINITY


def test_nu_q_sees_poles():
    assert nu_q(RationalFunction(Poly([2, -1]), Q)) == -1


def test_q_expand_geometric_series():
    f = RationalFunction(Poly.one(), Poly([1, 1]))
    assert nu_q(f) == 0
    assert tuple(q_coefficient(f, k) for k in range(3)) == (1, -1, 1)


def test_q_expand_with_pole():
    f = RationalFunction(Poly([2, -1]), Q)
    assert nu_q(f) == -1
    assert (q_coefficient(f, -1), q_coefficient(f, 0)) == (2, -1)
    assert q_coefficient(f, -2) == 0


def test_q_expand_zero_is_empty():
    zero = RationalFunction.zero()
    assert nu_q(zero) is INFINITY
    assert all(q_coefficient(zero, k) == 0 for k in range(-2, 6))


def test_eval_shifted_examples():
    square = RationalFunction(Poly([1, 1]) ** 2)
    assert square.shift(Fraction(-1)) == RationalFunction(Q ** 2)
    assert RationalFunction.x().shift(Fraction(0)) == RationalFunction(Q)
    inv = RationalFunction(Poly.one(), Poly.x()).shift(Fraction(0))
    assert inv == RationalFunction(Poly.one(), Q)
    assert nu_q(inv) == -1


@pytest.mark.parametrize("seed", [41, 42])
def test_nu_q_is_a_valuation(seed):
    rng = random.Random(seed)
    for _ in range(25):
        f = random_rf(rng, nonzero=True)
        g = random_rf(rng, nonzero=True)
        assert nu_q(f * g) == nu_q(f) + nu_q(g)
        s = f + g
        lower = min(nu_q(f), nu_q(g))
        assert nu_q(s) >= lower
        if nu_q(f) != nu_q(g):
            assert nu_q(s) == lower


@pytest.mark.parametrize("seed", [43, 44])
def test_q_expand_of_product_is_convolution(seed):
    rng = random.Random(seed)
    order = 8
    for _ in range(10):
        f = random_rf(rng, nonzero=True)
        g = random_rf(rng, nonzero=True)
        vf, vg, vp = nu_q(f), nu_q(g), nu_q(f * g)
        assert vp == vf + vg
        for k in range(order - vp + 1):
            conv = sum(
                (q_coefficient(f, vf + i) * q_coefficient(g, vg + k - i)
                 for i in range(k + 1)),
                Fraction(0),
            )
            assert q_coefficient(f * g, vp + k) == conv


@pytest.mark.parametrize("seed", [45, 46])
def test_eval_shifted_is_multiplicative(seed):
    rng = random.Random(seed)
    for _ in range(15):
        f = random_rf(rng)
        g = random_rf(rng)
        z = Fraction(rng.randint(-3, 3))
        assert (f * g).shift(z) == f.shift(z) * g.shift(z)


@pytest.mark.parametrize("seed", [47, 48])
def test_eval_shifted_links_q_valuation_to_point_multiplicity(seed):
    rng = random.Random(seed)
    for _ in range(20):
        f = random_rf(rng, nonzero=True)
        z = Fraction(rng.randint(-2, 2))
        pole = Poly([-z, 1])
        assert nu_q(f.shift(z)) == nu_at_factor(f, pole)
