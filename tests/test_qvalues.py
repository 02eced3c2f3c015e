"""The q-adic valuation, Laurent coefficients, the x -> z + q substitution,
and truncated q-series: their arithmetic, precision and determinants."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precint import (
    INFINITY,
    NumberField,
    Poly,
    PrecisionLoss,
    QSeries,
    RationalFunction,
    _linalg,
    nu_at_factor,
    nu_q,
    q_series,
    shifted_series,
)
from precint.qvalues import ZERO, least_valuation
from conftest import random_poly, random_rf

Q = Poly.x()  # the same dense representation serves the variable q


def q_coefficient(f: RationalFunction, n: int):
    """The coefficient of q^n of an exact f, read from an expansion that is
    long enough to hold it."""
    if f.is_zero:
        return Fraction(0)
    return q_series(f, max(1, n - nu_q(f) + 1)).coefficient(n)


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


# -- truncated q-series ----------------------------------------------------------

SQRT2 = NumberField(Poly([-2, 0, 1]))


def _claims_hold(series: QSeries, exact: RationalFunction) -> None:
    """Every coefficient the series claims is that of the exact value
    P/D, the claimed valuation is exact, and only an exact zero is ZERO.

    Checked with polynomial arithmetic alone: with T the claimed terms,
    P - T*D must vanish to order prec + ord_0(D).  Everything is scaled by
    q^s, s >= 0, so that T*q^s is a polynomial.
    """
    if series.is_zero:
        assert exact.is_zero
        return
    s = max(0, -series.val)
    terms = Poly.x() ** (series.val + s) * Poly(series.coeffs) \
        if series.coeffs else Poly.zero()
    residual = exact.num * Poly.x() ** s - terms * exact.den
    assert residual.order_at_zero() >= series.prec + s + exact.den.order_at_zero()
    if series.known:
        assert nu_q(exact) == series.val


def _laurent(c, k: int) -> RationalFunction:
    """c * q^k for any integer k."""
    if k >= 0:
        return RationalFunction(c * Poly.x() ** k)
    return RationalFunction(Poly((c,)), Poly.x() ** -k)


small = st.integers(-3, 3)


@st.composite
def q_values(draw, algebraic: bool):
    """A random element of K(q), K = Q or Q(sqrt 2), with a zero or pole of
    order up to 2 at q = 0."""
    def coeff():
        if algebraic:
            return SQRT2.element([draw(small), draw(small)])
        return Fraction(draw(small), draw(st.integers(1, 3)))

    num = Poly([coeff() for _ in range(draw(st.integers(1, 3)))])
    den = Poly([coeff() for _ in range(draw(st.integers(1, 3)))])
    if den.is_zero:
        den = Poly.one()
    return RationalFunction(num, den) * _laurent(Fraction(1), draw(st.integers(-2, 2)))


@st.composite
def operand_pairs(draw):
    """Two exact values and their expansions; the second is often the
    negative of the first plus a high-order term, so sums cancel."""
    algebraic = draw(st.integers(0, 3)) == 0
    f = draw(q_values(algebraic))
    g = draw(q_values(algebraic))
    if draw(st.booleans()):
        g = -f + g * _laurent(Fraction(1), draw(st.integers(0, 6)))
    return f, g, q_series(f, draw(st.integers(1, 6))), q_series(g, draw(st.integers(1, 6)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(operand_pairs())
def test_series_arithmetic_keeps_its_claims(pair):
    f, g, sf, sg = pair
    _claims_hold(sf, f)
    _claims_hold(sg, g)
    total = sf + sg
    _claims_hold(total, f + g)
    if not total.is_zero:
        assert total.prec == min(sf.prec, sg.prec)
    difference = sf - sg
    _claims_hold(difference, f - g)
    product = sf * sg
    _claims_hold(product, f * g)
    assert product.prec == min(sf.prec + sg.val, sg.prec + sf.val)
    chained = (sf + sg) * sg - sf
    _claims_hold(chained, (f + g) * g - f)


def test_zero_to_precision_is_not_a_valuation():
    f = RationalFunction(Poly([1, 1]), Poly([1, -1]))
    g = RationalFunction(Poly([1, 1, 5]), Poly([1, -1]))
    close = q_series(f, 2) - q_series(g, 2)
    assert not close.is_zero and not close.known
    assert close.prec == 2
    with pytest.raises(PrecisionLoss):
        nu_q(close)
    assert close.coefficient(1) == 0
    with pytest.raises(PrecisionLoss):
        close.coefficient(2)
    # past the degree bound of the difference the same cancellation is exact
    assert (q_series(f, 8) - q_series(f, 8)).is_zero


def test_zero_exactly_up_to_the_degree_bound_stays_unknown():
    """1/(1-q) - (1 + q + ... + q^4) = q^5/(1-q) has valuation 5, which is
    also its degree bound: known to O(q^5) it is not yet proven zero, nor is
    any product of it by a unit."""
    f = RationalFunction(Poly.one(), Poly([1, -1]))
    head = RationalFunction(Poly([1] * 5))
    tight = q_series(f, 5) - q_series(head, 5)
    assert not tight.is_zero and tight.prec == 5
    unit = q_series(RationalFunction(Poly([3, 1])), 4)
    for derived in (tight * unit, unit * tight):
        assert not derived.is_zero
        with pytest.raises(PrecisionLoss):
            nu_q(derived)
    assert nu_q(q_series(f, 6) - q_series(head, 6)) == 5


# -- the least valuation of several series, from what they prove ----------------

_H = (10, 0, 0)  # a height that proves no O(q^P) below q^11 exactly zero


def _known(val: int) -> QSeries:
    return QSeries(val, [1, 2], None, val + 2, _H)


def _unknown(prec: int) -> QSeries:
    return QSeries(prec, [], 1, prec, _H)


def test_a_known_entry_below_an_unknown_one_decides_the_least_valuation():
    assert least_valuation((_unknown(5), _known(2), _known(3))) == 2


def test_an_unknown_entry_tied_with_the_least_known_one_reads_as_that():
    assert least_valuation((_known(4), _unknown(4))) == 4


def test_an_unknown_entry_below_every_known_one_asks_for_more_precision():
    with pytest.raises(PrecisionLoss):
        least_valuation((_known(4), _unknown(3), _known(6)))


def test_entries_that_are_all_unknown_ask_for_more_precision():
    with pytest.raises(PrecisionLoss):
        least_valuation((_unknown(3), _unknown(7)))
    with pytest.raises(PrecisionLoss):
        least_valuation((ZERO, _unknown(7)))


def test_entries_that_are_all_exactly_zero_read_as_infinity():
    assert least_valuation((ZERO, ZERO)) is INFINITY
    assert least_valuation(()) is INFINITY


def test_a_cap_passes_over_unknown_entries_at_or_above_it():
    """With a cap the read is min(cap, least valuation): O(q^1) below the
    known q^3 asks for more precision only when the cap lies above 1."""
    entries = (_known(3), _unknown(1))
    assert least_valuation(entries, 0) == 0
    assert least_valuation(entries, 1) == 1
    with pytest.raises(PrecisionLoss):
        least_valuation(entries, 2)
    assert least_valuation((_known(-2), _unknown(-1)), 0) == -2
    with pytest.raises(PrecisionLoss):
        least_valuation((_known(0), _unknown(-1)), 0)


@pytest.mark.parametrize("seed", [81, 82])
def test_shifted_series_is_the_expansion_of_the_shift(seed):
    rng = random.Random(seed)
    t = SQRT2.generator
    for _ in range(20):
        f = random_rf(rng, max_degree=3, nonzero=True)
        z = rng.choice([Fraction(rng.randint(-3, 3)), t + rng.randint(-2, 2)])
        terms = rng.randint(1, 6)
        series = shifted_series(f, z, terms)
        _claims_hold(series, f.shift(z))
        assert series.prec - series.val == terms


def _leibniz_order(matrix, below=None):
    """nu_q of the exact determinant when it is less than `below` (no bound
    when None), else INFINITY.

    The determinant is its signed sum over permutations, taken on the
    coefficient lists of polynomials: each row is first multiplied by the
    product of its entries' denominators, whose q-orders are subtracted at
    the end, and only the coefficients that can decide the answer are
    kept.  The sum is grouped as a Laplace expansion down the rows, each
    minor of the last k rows on a set of k columns formed once."""
    shift = sum(e.den.order_at_zero() for row in matrix for e in row)
    keep = None if below is None else below + shift

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b):
                out[i + k] += x * y
        return out[:keep]

    def plus(a, b, sign):
        a, b = a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b))
        return [x + sign * y for x, y in zip(a, b)]

    n = len(matrix)
    rows = []
    for row in matrix:
        scaled = []
        for k, e in enumerate(row):
            cs = e.num.coeffs[:keep]
            for m, other in enumerate(row):
                if m != k:
                    cs = times(cs, other.den.coeffs)
            scaled.append(cs)
        rows.append(scaled)
    minors = {(): [1]}
    for i in reversed(range(n)):
        level = {}
        for cols in itertools.combinations(range(n), n - i):
            total = []
            for pos, c in enumerate(cols):
                minor = minors[cols[:pos] + cols[pos + 1:]]
                total = plus(total, times(rows[i][c], minor), (-1) ** pos)
            level[cols] = total
        minors = level
    for k, c in enumerate(minors[tuple(range(n))]):
        if c:
            return k - shift
    return INFINITY


@st.composite
def q_matrices(draw, n: int, algebraic: bool, kind: str):
    """Square n x n matrices over Q(q), or Q(sqrt 2)(q) when `algebraic`.
    Of the kinds "exact" and "close", the last row is a combination of two
    others, exactly (singular) or up to a multiple of q^k (so entries
    cancel to high order during the elimination)."""
    rows = [[draw(q_values(algebraic)) for _ in range(n)] for _ in range(n)]
    if kind != "free":
        a, b = draw(q_values(algebraic)), draw(q_values(algebraic))
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1 % (n - 1)])]
        if kind == "close":
            tail = _laurent(Fraction(1), draw(st.integers(1, 4)))
            rows[-1] = [x + tail * draw(q_values(algebraic)) for x in rows[-1]]
    return rows


# Sizes 1-5 over Q and 1-3 over Q(sqrt 2): over Q(sqrt 2) the oracle's
# number-field products cost about 0.3 s for one 5 x 5 matrix.  Exactly
# singular matrices stop at size 4 over Q and 2 over Q(sqrt 2): the degree
# bound that proves the last pivot zero grows about fourfold with each
# elimination step, so at size 5 over Q the proof reads series of up to
# 512 terms (up to 27 s for one matrix), and at size 3 over Q(sqrt 2) up
# to 64 terms of number-field coefficients (about 1 s).
MATRIX_CASES = [(n, algebraic, kind)
                for algebraic, top, exact_top in ((False, 5, 4), (True, 3, 2))
                for n in range(1, top + 1)
                for kind in ("free", "exact", "close")
                if kind == "free" or 1 < n and (kind == "close" or n <= exact_top)]


@settings(max_examples=4, deadline=None, derandomize=True)
@given(st.data())
def test_series_determinant_has_the_exact_valuation(data):
    """The valuation read from the pivots is nu_q of the exact determinant,
    INFINITY exactly when the matrix is singular; each example draws one
    matrix of every case."""
    for case in MATRIX_CASES:
        matrix = data.draw(q_matrices(*case))
        terms = data.draw(st.integers(1, 4))
        while True:
            try:
                value = _linalg.determinant([[q_series(e, terms) for e in row]
                                             for row in matrix], nu_q)
                break
            except PrecisionLoss:
                terms *= 2
        if value is INFINITY:
            assert _leibniz_order(matrix) is INFINITY
        else:
            assert _leibniz_order(matrix, value + 1) == value


def test_entries_zero_to_precision_are_carried_through_the_elimination():
    """In [[q, 1], [c, 1]] with c = q^2 known only as O(q^2), c is no pivot
    and its row is still updated, and so counted among the rows the pivot q
    scaled: the determinant q - q^2 has valuation 1."""
    a = RationalFunction(Poly.one(), Poly([1, -1]))
    b = a - RationalFunction(Q ** 2)
    c = q_series(a, 2) - q_series(b, 2)
    assert not c.known and not c.is_zero
    one = q_series(RationalFunction.one(), 4)
    matrix = [[q_series(RationalFunction(Q), 4), one], [c, one]]
    assert _linalg.determinant(matrix, nu_q) == 1


def test_sum_of_series_over_two_number_fields_is_refused():
    """Also when the second operand's terms all lie at or past the first's
    precision, so that no coefficient of the sum meets it."""
    h = (10, 0, 0)
    sqrt2 = NumberField(Poly([-2, 0, 1])).generator
    sqrt3 = NumberField(Poly([-3, 0, 1])).generator
    a = QSeries(0, [sqrt2, 0], None, 2, h)
    for b in (QSeries(1, [0, sqrt3], None, 3, h), QSeries(1, [sqrt3], None, 3, h)):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="mixing elements of different number fields"):
                x + y
    rational = QSeries(2, [Fraction(1, 3)], None, 3, h)
    assert (a + rational).coeffs == a.coeffs
