"""Oracle agreement, module equality, certificates, and random operators."""

from __future__ import annotations

import ast
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precint import (
    INFINITY,
    AlgebraicPoint,
    BasisMatrix,
    NumberField,
    OrbitAnalysis,
    Poly,
    QuotientElement,
    RandomOperatorSpec,
    RationalFunction,
    ShiftSpace,
    SingularTransitionError,
    brute_val,
    certificate,
    galois_norm_uniformizer,
    global_integral_basis,
    local_integral_basis,
    module_equal_at,
    nu_q,
    operator_str,
    random_operators,
    val_at,
)
from precint import cli
from precint.fields import poly_gcd
from precint.ore import default_anchor
from precint.valuation import detect_orbits
from precint.verify import (
    _UNIT_SHIFTS,
    _below,
    _fresh_solution_table,
    _lazy_order,
    _least_window,
    _plan,
    _powers_of,
    _row_values,
    _term,
    _times,
    _vanishes_at,
)
from conftest import el, op, planted_operator, pt, random_rf

Q = Poly.x()  # the same dense representation serves the variable q
SQRT2 = NumberField(Poly([-2, 0, 1]))
VERIFY_SOURCE = Path(__file__).resolve().parent.parent / "src" / "precint" / "verify.py"


def _imports(tree: ast.AST):
    """(module, name) for every name the source imports, at any depth, with
    package modules given without their `precint.` or `.` prefix."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.removeprefix("precint."), None
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("precint").lstrip(".")
            for alias in node.names:
                # `from . import ore` imports a module
                yield (module, alias.name) if module else (alias.name, None)


def test_oracle_imports_no_main_path_values():
    """The oracle keeps its own table and values: it imports nothing from
    `qvalues`, and from `ore` only the operator, the quotient element and
    the default anchor, never the solution table or the element action."""
    imports = list(_imports(ast.parse(VERIFY_SOURCE.read_text())))
    assert ("fields", "Poly") in imports  # the walk sees the package imports
    assert [i for i in imports if i[0] == "qvalues"] == []
    from_ore = {name for module, name in imports if module == "ore"}
    assert from_ore == {"OreOperator", "QuotientElement", "default_anchor"}


def _known_local():
    return BasisMatrix((
        el("1", 3),
        el("(x-2)/x^2 + (1/x)*S", 3),
        el("-2/x + S^2", 3),
    ))


# -- the lazy q-order ---------------------------------------------------------------


def _product(factors) -> Poly:
    out = Poly.one()
    for p in factors:
        out = out * p
    return out


def _expanded(terms):
    """The sum as (N, D), expanded over the product D of all denominators."""
    num, den = Poly.zero(), Poly.one()
    for nums, dens in terms:
        term_den = _product(dens)
        num = num * term_den + _product(nums) * den
        den = den * term_den
    return num, den


def _exact_sum(terms) -> RationalFunction:
    return RationalFunction(*_expanded(terms))


def _lazy(terms):
    return _lazy_order([_term(nums, dens) for nums, dens in terms])


small = st.integers(-3, 3)


@st.composite
def q_sums(draw):
    """Terms of a sum in K(q), K = Q or Q(sqrt 2), each a list of numerator
    and denominator factors with zeros at q = 0.  The sum is often cancelled
    by its negative written over a larger denominator, split in two terms,
    leaving either nothing or a remainder of order up to 14."""
    algebraic = draw(st.integers(0, 2)) == 0

    def coeff():
        if algebraic:
            return SQRT2.element([draw(small), draw(small)])
        return Fraction(draw(small), draw(st.integers(1, 3)))

    def poly(nonzero: bool) -> Poly:
        p = Poly([coeff() for _ in range(draw(st.integers(1, 3)))])
        if nonzero and p.is_zero:
            p = Poly.one()
        return p * Q ** draw(st.integers(0, 2))

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        terms.append(([poly(False) for _ in range(draw(st.integers(1, 2)))],
                      [poly(True) for _ in range(draw(st.integers(0, 2)))]))
    mode = draw(st.sampled_from(("free", "zero", "rest")))
    if mode != "free":
        num, den = _expanded(terms)
        g = poly(True)
        part = poly(False)
        # -num/den = (part - num*g) / (den*g) - part / (den*g)
        terms.append(([part - num * g], [den, g]))
        terms.append(([-part], [den * g]))
        if mode == "rest":
            terms.append(([poly(True), Q ** draw(st.integers(3, 14))],
                          [poly(True)]))
    return terms


@settings(max_examples=120, deadline=None, derandomize=True)
@given(q_sums())
def test_lazy_order_is_nu_q_of_the_exact_sum(terms):
    assert _lazy(terms) == nu_q(_exact_sum(terms))


def test_lazy_order_reads_exact_zeros_as_infinity():
    u = Poly([1, 2])
    assert _lazy([([u], [Q]), ([-u * Q], [Q * Q])]) is INFINITY
    assert _lazy([([Poly.zero()], [u])]) is INFINITY
    assert _lazy([]) is INFINITY
    a = SQRT2.generator
    assert _lazy([([Poly([a, 1])], [Poly([1, a])]),
                  ([Poly([-a, -1])], [Poly([1, a])])]) is INFINITY


@pytest.mark.parametrize("k", [1, 2, 5, 9])
def test_lazy_order_finds_the_last_coefficient_of_the_bound(k):
    """1 - 1/(1 - q^k) = -q^k/(1 - q^k): the numerator's only coefficient
    sits at the degree bound itself, so a bound one too low proves a false
    zero."""
    terms = [([Poly.one()], []),
             ([Poly([-1])], [Poly.one() - Q ** k])]
    assert _lazy(terms) == k
    # the same cancellation with the poles and zeros spread over factors
    terms = [([Q + 1], [Q ** 2]),
             ([-(Q + 1), Q], [Q ** 3, Poly.one() - Q ** k])]
    assert _lazy(terms) == k - 2


def test_lazy_order_reads_ties_through_the_int_denominators():
    """The tied constant terms cancel only once each factor's int
    denominator is counted: 1/2 + (-1/2 + q/3) = q/3 on the numerator side,
    1/(1/2 + q) - 2 = -2q/(1/2 + q) on the denominator side."""
    half = Fraction(1, 2)
    assert _lazy([([Poly([half])], []),
                  ([Poly([-half, Fraction(1, 3)])], [])]) == 1
    assert _lazy([([Poly.one()], [Poly([half, 1])]),
                  ([Poly([-2])], [])]) == 1
    # and over a number field, mixed with rational factors
    a = SQRT2.generator
    assert _lazy([([Poly([a * half])], [Poly([Fraction(1, 3), 1])]),
                  ([Poly([-a * Fraction(3, 2), 1])], [])]) == 1


def test_lazy_order_with_a_unique_minimum_reads_no_series():
    terms = [([Poly([0, 3])], [Poly([0, 0, 1])]), ([Q ** 4], [Poly([1, 1])])]
    assert _lazy(terms) == -1


# -- brute-force valuation ------------------------------------------------------


def test_brute_val_examples(cubic):
    assert brute_val(el("S", 3), pt("0"), cubic, 10) == -1
    assert brute_val(QuotientElement.zero(3), pt("0"), cubic, 10) is INFINITY
    clean = op("S^2 - 1")
    assert brute_val(el("1", 2), pt("5"), clean, 6) == 0


def test_brute_val_rejects_tiny_windows(cubic):
    from precint import PrecintError

    with pytest.raises(PrecintError):
        brute_val(el("S", 3), pt("0"), cubic, 2)


@pytest.mark.parametrize("seed", [71, 72])
def test_brute_val_agrees_with_val_at(seed):
    rng = random.Random(seed)
    spec = RandomOperatorSpec(order=2, coeff_degree=1, height=2, seed=seed)
    operators = random_operators(spec, 5)
    checked = 0
    for operator in operators:
        operator = operator.normalized()
        orbit = AlgebraicPoint.from_rational(0)
        analysis = OrbitAnalysis.analyze(operator, orbit)
        r = operator.order
        for _ in range(5):
            element = QuotientElement(tuple(random_rf(rng, max_degree=1,
                                                      height=2)
                                            for _ in range(r)))
            n = rng.randint(-3, 3)
            point = orbit.shifted(n)
            expected = val_at(element, point, analysis)
            assert brute_val(element, point, operator, 9) == expected
            checked += 1
    assert checked == 25


# -- module equality ---------------------------------------------------------------


def test_module_equal_reflexive(cubic):
    basis = _known_local()
    assert module_equal_at(basis, basis, pt("0"))


def test_module_equal_detects_scaled_rows():
    basis = _known_local()
    rows = list(basis.rows)
    rows[1] = rows[1].scaled(RationalFunction.x())  # x vanishes at the point
    assert not module_equal_at(BasisMatrix(tuple(rows)), basis, pt("0"))
    assert not module_equal_at(basis, BasisMatrix(tuple(rows)), pt("0"))


def test_module_equal_ignores_units():
    basis = _known_local()
    rows = list(basis.rows)
    rows[0] = rows[0].scaled(RationalFunction(Poly([1, 1])))  # unit at 0
    rows[2] = rows[2] + rows[1]
    other = BasisMatrix(tuple(rows))
    assert module_equal_at(basis, other, pt("0"))


def test_module_equal_rejects_degenerate_bases():
    basis = _known_local()
    rows = list(basis.rows)
    rows[2] = rows[1]
    with pytest.raises(SingularTransitionError, match="second basis"):
        module_equal_at(basis, BasisMatrix(tuple(rows)), pt("0"))
    with pytest.raises(SingularTransitionError, match="first basis"):
        module_equal_at(BasisMatrix(tuple(rows)), basis, pt("0"))


def test_module_equal_detects_a_pole_in_a_unimodular_transition():
    """A transition of determinant 1 with an entry of negative valuation:
    the determinants agree, and only the entries tell the modules apart."""
    basis = _known_local()
    rows = list(basis.rows)
    rows[0] = rows[0] + rows[1].scaled(RationalFunction(Poly.one(), Poly.x()))
    other = BasisMatrix(tuple(rows))
    assert not module_equal_at(other, basis, pt("0"))
    assert not module_equal_at(basis, other, pt("0"))
    assert module_equal_at(other, basis, pt("1"))


def test_module_equal_at_an_algebraic_point():
    """At root(x^2-2) the local basis equals a copy with one row scaled by a
    unit there, and differs from a copy with one row scaled by the
    minimal polynomial, in either order."""
    operator = op("x^2 - 2 + S^2")
    point = pt("root(x^2-2)")
    analysis = OrbitAnalysis.analyze(operator, point.orbit())
    basis = local_integral_basis(ShiftSpace(analysis), BasisMatrix.standard(2),
                                 point)

    def scaled(factor):
        rows = list(basis.rows)
        rows[1] = rows[1].scaled(RationalFunction(factor))
        return BasisMatrix(tuple(rows))

    unit, min_poly = scaled(Poly([3, 1])), scaled(Poly([-2, 0, 1]))
    assert module_equal_at(basis, unit, point)
    assert module_equal_at(unit, basis, point)
    assert not module_equal_at(basis, min_poly, point)
    assert not module_equal_at(min_poly, basis, point)


@pytest.mark.parametrize("seed", [73])
def test_module_equal_is_an_equivalence(seed):
    rng = random.Random(seed)
    base = _known_local()
    point = pt("0")

    def unimodular_variant():
        rows = list(base.rows)
        # unit rescale and an integral row operation keep the module
        unit = RationalFunction(Poly([rng.randint(1, 3), 1]))
        i = rng.randrange(3)
        rows[i] = rows[i].scaled(unit)
        j, k = rng.sample(range(3), 2)
        rows[j] = rows[j] + rows[k].scaled(RationalFunction(Poly([rng.randint(-2, 2)])))
        return BasisMatrix(tuple(rows))

    for _ in range(5):
        a, b, c = unimodular_variant(), unimodular_variant(), unimodular_variant()
        assert module_equal_at(a, a, point)
        assert module_equal_at(a, b, point) == module_equal_at(b, a, point)
        if module_equal_at(a, b, point) and module_equal_at(b, c, point):
            assert module_equal_at(a, c, point)


# -- certificates ------------------------------------------------------------------


def test_certificate_clean_on_known_local_basis(cubic):
    report = certificate(cubic, _known_local(), pt("0"), samples=200, seed=5)
    assert report.passed
    assert report.samples == 200
    assert report.to_json_dict()["seed"] == 5


def test_certificate_flags_standard_basis(cubic):
    report = certificate(cubic, BasisMatrix.standard(3), pt("0"),
                         samples=60, seed=5)
    assert not report.passed
    assert report.violations


def test_certificate_with_zero_samples_is_empty(cubic):
    report = certificate(cubic, BasisMatrix.standard(3), pt("0"),
                         samples=0, seed=5)
    assert report.passed
    assert report.violations == ()


def test_certificate_rejects_a_window_too_small(cubic):
    """A window left of the least one would check the wrong table: the
    standard basis is not integral at 0, yet window -3 saw no violation."""
    from precint import PrecintError

    standard = BasisMatrix.standard(3)
    least = certificate(cubic, standard, pt("0"), samples=0, seed=5).window - 2
    for window in (-3, least - 1):
        with pytest.raises(PrecintError, match="window"):
            certificate(cubic, standard, pt("0"), 60, 5, window=window)
    assert certificate(cubic, standard, pt("0"), 60, 5,
                       window=least).violations


def test_certificate_rejects_negative_samples(cubic):
    from precint import PrecintError

    with pytest.raises(PrecintError, match="samples"):
        certificate(cubic, _known_local(), pt("0"), samples=-5, seed=5)


def test_certificate_text_and_json_round(cubic):
    report = certificate(cubic, _known_local(), pt("0"), samples=10, seed=9)
    text = report.to_text()
    assert "seed 9" in text
    payload = report.to_json_dict()
    assert payload["passed"] is True
    assert payload["point"] == "0"


def test_certificate_at_algebraic_point():
    operator = op("x^2 - 2 + S^2")
    orbit = AlgebraicPoint(Poly([-2, 0, 1]), 0)
    run = global_integral_basis(operator, {orbit.orbit_key(): 1})
    for n in (0, 1):
        report = certificate(operator, run.basis, orbit.shifted(n),
                             samples=40, seed=3)
        assert report.passed


# a nonzero polynomial with coefficients in [-3, 3] that vanishes at each
# point, when there is one of degree at most 2
VANISHING = {
    "0": (0, 1),
    "7": None,
    "1/2": (-1, 2),
    "root(x^2-2)+1": (-1, -2, 1),
    "root(x^2-1/2)": (-1, 0, 2),
    "root(x^2-1/2)+1": None,
    "root(x^3-2)+2": None,
}


@pytest.mark.parametrize("text", sorted(VANISHING))
def test_a_unit_is_redrawn_exactly_when_its_shift_has_a_zero_constant_term(text):
    z = pt(text).value()
    powers = _powers_of(z)
    redrawn = set()
    for n in (1, 2, 3):
        for coeffs in itertools.product(range(-3, 4), repeat=n):
            shifted = Poly(coeffs).shift(z)
            vanishes = _vanishes_at(coeffs, powers)
            assert vanishes == (shifted.is_zero or not shifted.nums[0]), coeffs
            if vanishes and any(coeffs):
                redrawn.add(coeffs)
    if VANISHING[text] is not None:
        assert VANISHING[text] in redrawn


def _reference_violations(modulus, basis, point, samples, seed, draws=None):
    """The certificate's sample loop as it was before it read orders first:
    every unit shifted to z + q, every coordinate built as a term and every
    sum read by `_lazy_order`, with the draws of `randint` and `choice`.
    Each sample's exponents and units are appended to `draws` if given."""
    r, orbit = modulus.order, point.orbit()
    anchor = default_anchor(modulus, orbit) - _least_window(modulus, orbit) - 2
    table = _fresh_solution_table(modulus, orbit, anchor, point.offset,
                                  point.offset + r - 1)
    z = orbit.value() + point.offset
    row_terms = [[_term((num,), (den,)) for num in nums]
                 for nums, den in _row_values(basis.rows, table, z, point.offset)]
    norm = galois_norm_uniformizer(point).shift(z)
    unit_dens = {c: (galois_norm_uniformizer(point.shifted(c)).shift(z),)
                 for c in (1, -1, 2)}
    unit_dens[0] = ()
    rng = random.Random(seed)
    out = []
    for s in range(samples):
        exponents = tuple(rng.randint(-2, 2) for _ in range(r))
        coords, units = [], []
        for e in exponents:
            while True:
                coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
                unit = Poly(coeffs).shift(z)
                if unit.nums and unit.nums[0]:
                    break
            c = rng.choice((0, 1, -1, 2))
            units.append((tuple(coeffs), c))
            coords.append(_term((unit,) + (norm,) * max(e, 0),
                                unit_dens[c] + (norm,) * max(-e, 0)))
        if draws is not None:
            draws.append((exponents, tuple(units)))
        value = min(_lazy_order([_times(c, row[j])
                                 for c, row in zip(coords, row_terms)])
                    for j in range(r))
        claimed = all(e >= 0 for e in exponents)
        if (value >= 0) != claimed:
            out.append((s, exponents,
                        value if value is not INFINITY else "infinity", claimed))
    return out


def _violations(report):
    return [(v.sample, v.exponents, v.value, v.claimed_integral)
            for v in report.violations]


def _counting(monkeypatch, name):
    """Wrap the oracle's function `name` to record its calls: the list holds
    (args, result) per call."""
    import precint.verify as verify_mod

    calls = []
    real = getattr(verify_mod, name)

    def counted(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(verify_mod, name, counted)
    return calls


# operator, point, the right bounds of a global run treating the point, and
# whether some sample there has a tied sum below its other sums, which is
# read by `_lazy_order`; at root(x^2-2)+1 no sum of these bases ties, and
# of order 1 no sum has two terms
DIFFERENTIAL = {
    "cubic": ("(x+2)^2 + x*S^2 + (x+2)*S^3", "0", {"Z": 0}, True),
    "sqrt2": ("x^2 - 2 + S^2", "root(x^2-2)+1", {"-2+x^2": 1}, False),
    "half": ("(2*x-1)*(x+3) + S + (2*x+5)*S^2", "1/2", {"-1/2+x": 0, "Z": 0},
             True),
    "cubic-field": ("(x^3-2)*(x^3-3*x^2+3*x-3) + x*S + (x^3-3*x^2+3*x-3)*S^2",
                    "root(x^3-2)+2", {"-2+x^3": 2}, True),
    "order1": ("x*(x-3) + (x+2)*S", "-1", {"Z": 4}, False),
    "ord4": ("(x+2)^2*(x-1) + x*S + (x^2+1)*S^2 + S^3 + (x-3)*S^4", "7",
             {"Z": 7}, True),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_certificate_agrees_with_the_loop_that_shifts_every_unit(name, monkeypatch):
    text, where, bounds, ties = DIFFERENTIAL[name]
    operator, point = op(text), pt(where)
    run = global_integral_basis(operator, bounds)
    assert point in [entry.analysis.orbit.shifted(n) for entry in run.processed
                     for n in entry.points]
    reads = _counting(monkeypatch, "_lazy_order")
    plans = _counting(monkeypatch, "_plan")
    for basis in (BasisMatrix.standard(operator.order), run.basis):
        for seed in range(6):
            draws = []
            plans.clear()
            report = certificate(operator, basis, point, samples=40, seed=seed)
            assert _violations(report) == _reference_violations(
                operator, basis, point, 40, seed, draws)
            # each exponent tuple drawn is planned once, on its first draw
            assert [args[0] for args, _ in plans] == list(
                dict.fromkeys(exponents for exponents, _ in draws))
    # with a tie the units were shifted and the sum read, not only orders
    assert bool(reads) == ties


def test_a_plan_serves_repeated_exponents_with_other_units(cubic, monkeypatch):
    """200 samples at r = 3 draw some of the 125 exponent tuples again with
    other units, among them tuples whose plan has a tie to read: the report
    still matches the loop that reads every sum."""
    plans = _counting(monkeypatch, "_plan")
    basis, point = BasisMatrix.standard(3), pt("0")
    draws = []
    report = certificate(cubic, basis, point, samples=200, seed=11)
    assert _violations(report) == _reference_violations(
        cubic, basis, point, 200, 11, draws)
    assert report.violations
    planned = {args[0]: plan for args, plan in plans}
    assert len(planned) == len(plans) < 200
    units_of = {}
    for exponents, units in draws:
        units_of.setdefault(exponents, set()).add(units)
    assert any(len(units_of[e]) > 1 and planned[e][1] for e in planned)


def test_no_state_survives_a_certificate(cubic):
    """Memos of one call (plans, unit tests, shifted units) must not reach
    the next: the cubic at 0 with the standard basis, then sqrt2 at
    root(x^2-2)+1, then the cubic at 0 with its global basis, whose plans
    and shifted units differ from the first call's."""
    sqrt2 = op("x^2 - 2 + S^2")
    sqrt2_run = global_integral_basis(sqrt2, {"-2+x^2": 1})
    cubic_run = global_integral_basis(cubic, {"Z": 0})
    calls = [(cubic, BasisMatrix.standard(3), pt("0"), 1),
             (sqrt2, BasisMatrix.standard(2), pt("root(x^2-2)+1"), 2),
             (sqrt2, sqrt2_run.basis, pt("root(x^2-2)+1"), 3),
             (cubic, cubic_run.basis, pt("0"), 1)]
    for operator, basis, point, seed in calls:
        report = certificate(operator, basis, point, samples=100, seed=seed)
        assert _violations(report) == _reference_violations(
            operator, basis, point, 100, seed)


def test_certificate_raises_when_a_unit_denominator_is_not_a_unit(
        cubic, monkeypatch):
    """The plans rest on a unit's denominator having order 0 at z; a norm
    that vanishes there must raise, not be planned around."""
    from precint import PrecintError

    point = pt("0")
    monkeypatch.setattr("precint.verify.galois_norm_uniformizer",
                        lambda _: galois_norm_uniformizer(point))
    with pytest.raises(PrecintError, match="unit"):
        certificate(cubic, _known_local(), point, samples=5, seed=0)


def test_plans_read_ties_below_the_untied_value_only():
    """Row orders [[0, 1], [0, 3]]: solution 0 ties at 0 under exponents
    (0, 0), and solution 1's least order 1 is reached once."""
    order_of = {e: e for e in range(-2, 3)}
    assert _plan((0, 0), order_of, [[0, 1], [0, 3]]) == (1, [(0, 0)], True)
    # a tie at or above the untied value is dropped
    assert _plan((1, 1), order_of, [[0, 0], [0, 1]]) == (1, [], True)
    assert _plan((-1, 2), order_of, [[None, 0], [None, 1]]) == (-1, [], False)
    # ties are read least first, whatever their solution
    assert _plan((0, 0), order_of, [[1, 0, 5], [1, 0, 5]]) == (
        INFINITY, [(0, 1), (1, 0), (5, 2)], True)


def test_draws_take_the_bits_randint_and_choice_take():
    """`_below` must consume the generator as CPython's `randint` and
    `choice` do, or every failing-certificate report would shift."""
    kinds = [(5, -2, lambda rng: rng.randint(-2, 2)),
             (3, 1, lambda rng: rng.randint(1, 3)),
             (7, -3, lambda rng: rng.randint(-3, 3)),
             (4, None, lambda rng: rng.choice(_UNIT_SHIFTS))]
    for seed in range(10):
        rng, twin = random.Random(seed), random.Random(seed)
        order = random.Random(100 + seed)
        for _ in range(10_000):
            n, start, stock = kinds[order.randrange(4)]
            v = _below(rng.getrandbits, n)
            drawn = _UNIT_SHIFTS[v] if start is None else start + v
            assert drawn == stock(twin)
        assert rng.getstate() == twin.getstate()


# -- the main path against the oracle on wider operators -------------------------


# (order, coefficient degree, seed) -> whether l_0 and l_r share a root.
# Both operators have two singular orbits: order 4 has Z and root(x^2-2),
# with l_0 = x*(x+1)*(x^2-2) and l_r = x*(x-1); order 5 has Z and 1/2 + Z.
WIDE = {(4, 3, 12): True, (5, 1, 0): False}


def _wide(shape):
    operator = planted_operator(*shape)
    ell = operator.polynomial_coeffs()
    assert operator.order == shape[0]
    assert (poly_gcd(ell[0], ell[-1])[0].degree > 0) == WIDE[shape]
    analyses = [OrbitAnalysis.analyze(operator, orbit)
                for orbit in detect_orbits(operator)]
    assert len(analyses) == 2
    return operator, analyses


@pytest.mark.parametrize("shape", sorted(WIDE), ids=lambda s: f"order{s[0]}")
def test_val_at_agrees_with_brute_val_on_wide_operators(shape):
    operator, analyses = _wide(shape)
    r = operator.order
    rng = random.Random(repr(shape))
    for analysis in analyses:
        left, right = analysis.left_edge, analysis.right_edge
        for _ in range(3):
            point = analysis.orbit.shifted(rng.randint(left - 1, right + 1))
            norm = RationalFunction(galois_norm_uniformizer(point))
            element = QuotientElement(tuple(
                random_rf(rng, max_degree=1, height=2) * norm ** rng.randint(-1, 1)
                for _ in range(r)))
            assert val_at(element, point, analysis) == brute_val(
                element, point, operator, r + right - left)


@pytest.mark.parametrize("shape", sorted(WIDE), ids=lambda s: f"order{s[0]}")
def test_certificates_pass_on_wide_global_bases(shape):
    operator, analyses = _wide(shape)
    bounds = {a.orbit.orbit_key(): a.right_edge for a in analyses}
    run = global_integral_basis(operator, bounds)
    assert len(run.processed) == 2
    for entry in run.processed:
        for n in entry.points:
            point = entry.analysis.orbit.shifted(n)
            report = certificate(operator, run.basis, point, samples=20,
                                 seed=n)
            assert report.passed, (str(point), report.violations[:3])


# -- random operators -----------------------------------------------------------------


def test_random_operators_are_valid_and_deterministic():
    spec = RandomOperatorSpec(order=3, coeff_degree=2, height=3, seed=17)
    ops_a = random_operators(spec, 10)
    ops_b = random_operators(spec, 10)
    assert ops_a == ops_b
    for operator in ops_a:
        assert operator.order == 3
        assert not operator.coeffs[0].is_zero
        assert not operator.coeffs[-1].is_zero


def test_random_operator_spec_validates_shape():
    with pytest.raises(ValueError):
        RandomOperatorSpec(order=6)
    with pytest.raises(ValueError):
        RandomOperatorSpec(order=0)
    with pytest.raises(ValueError):
        RandomOperatorSpec(coeff_degree=4)
    with pytest.raises(ValueError):
        RandomOperatorSpec(height=0)


# -- the main path against the oracle on algebraic orbits of degree 3 and with
# -- a non-integral minimal polynomial ------------------------------------------

# operator, its orbit's key and the right bound: the orbit of 2^(1/3), whose
# extreme coefficients vanish at its root and at its root + 1, and that of
# sqrt(1/2), whose minimal polynomial x^2 - 1/2 is not integral
ALGEBRAIC = {
    "cubic-field": ("(x^3-2)*(x^3-3*x^2+3*x-3) + x*S + (x^3-3*x^2+3*x-3)*S^2",
                    "-2+x^3", 2),
    "half": ("(2*x^2-1) + x*S + (2*x^2-1)*S^2", "-1/2+x^2", 1),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAIC))
def test_certificates_pass_on_algebraic_global_bases(name):
    text, key, bound = ALGEBRAIC[name]
    operator = op(text)
    run = global_integral_basis(operator, {key: bound})
    (entry,) = run.processed
    assert entry.analysis.orbit.orbit_key() == key
    assert entry.points == tuple(range(bound + 1))
    for n in entry.points:
        report = certificate(operator, run.basis, entry.analysis.orbit.shifted(n),
                             samples=10, seed=n)
        assert report.passed, (n, report.violations[:3])


@pytest.mark.parametrize("name", sorted(ALGEBRAIC))
def test_val_at_agrees_with_brute_val_on_algebraic_orbits(name):
    text, key, _ = ALGEBRAIC[name]
    operator = op(text)
    (orbit,) = detect_orbits(operator)
    analysis = OrbitAnalysis.analyze(operator, orbit)
    r = operator.order
    left, right = analysis.left_edge, analysis.right_edge
    rng = random.Random(name)
    for offset in (left - 1, left, right + 1):
        point = analysis.orbit.shifted(offset)
        norm = RationalFunction(galois_norm_uniformizer(point))
        element = QuotientElement(tuple(
            random_rf(rng, max_degree=1, height=2) * norm ** rng.randint(-1, 1)
            for _ in range(r)))
        assert val_at(element, point, analysis) == brute_val(
            element, point, operator, r + right - left)


# -- `verify --at` at every point of a degree-3 orbit of seeded order-2
# -- operators ------------------------------------------------------------------


def _cubic_orbit_operator(seed: int):
    """(operator, s) for an order-2 operator whose trailing coefficient
    vanishes at the root of x^3 - 2 and whose leading one vanishes at that
    root + s, with s in {1, 2} and seeded integers elsewhere."""
    rng = random.Random(seed)
    a, b, c = (rng.randint(-5, 5) for _ in range(3))
    s = 1 + seed % 2
    return f"(x^3-2)*(x{a:+d}) + ({b}*x{c:+d})*S + ((x-{s})^3-2)*S^2", s


@pytest.mark.parametrize("seed", range(8))
def test_verify_passes_at_every_point_of_a_cubic_orbit(seed, monkeypatch, capsys):
    """Certificates and the idempotence check pass at root(x^3-2) + n for
    n = 0..s+2, from left of the orbit's singular points to right of them,
    and the local bases there are reached through at least one combine."""
    text, s = _cubic_orbit_operator(seed)
    kinds = []
    local_basis = cli.local_integral_basis

    def recording(space, basis, point):
        out = local_basis(space, basis, point)
        kinds.extend(u.kind for u in out.provenance)
        return out

    monkeypatch.setattr(cli, "local_integral_basis", recording)
    for n in range(s + 3):
        code = cli.main(["verify", "--operator", text, "--at", f"root(x^3-2)+{n}",
                         "--samples", "20", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, (text, n)
        assert all(c["passed"] for c in report["certificates"]), (text, n)
        assert all(c["ok"] for c in report["module_checks"]), (text, n)
        assert report["passed"]
    assert "combine" in kinds, text


# -- global bases against the benchmark's sympy-only check ------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_global_bases_of_random_operators_pass_the_sympy_check(monkeypatch, capsys):
    """`global-basis` on five seeded operators of each order 1-4, every orbit
    bounded at its right edge, checked by `bench/sympycheck.py`, which reads
    the text output back with sympy and shares no arithmetic with precint:
    each basis integral and maximal at every point of the expected worklist,
    and the reported points that worklist.  Texts and keys can begin with
    '-', so the options take the `--opt=value` form.  Enough bases are not
    the standard one, and some orbit is quadratic, that trivial cases alone
    cannot pass."""
    monkeypatch.syspath_prepend(str(BENCH))
    from sympycheck import check_global_basis

    non_standard, degrees = 0, set()
    for k in range(1, 5):
        spec = RandomOperatorSpec(order=k, coeff_degree=2, height=3, seed=k)
        standard = [[{"num": str(int(i == j)), "den": "1"} for j in range(k)]
                    for i in range(k)]
        for operator in random_operators(spec, 5):
            operator = operator.normalized()
            text = operator_str(operator)
            bounds = {}
            for orbit in detect_orbits(operator):
                bounds[orbit.orbit_key()] = OrbitAnalysis.analyze(operator, orbit).right_edge
                degrees.add(orbit.degree)
            argv = ["global-basis", f"--operator={text}", "--format", "json"]
            argv += [f"--right-bound={key}={edge}" for key, edge in bounds.items()]
            code = cli.main(argv)
            payload = json.loads(capsys.readouterr().out)
            assert code == 0, argv
            assert check_global_basis(text, bounds, payload) == [], argv
            non_standard += payload["basis"] != standard
    assert non_standard >= 10
    assert 2 in degrees


@pytest.mark.parametrize("d", [3, 4])
def test_global_bases_at_orbits_of_degree_3_and_4_pass_the_sympy_check(d, monkeypatch, capsys):
    """`global-basis` of (x^d-3) + x*S + (x^d-3)*S^2 at x^d-3=1, checked by
    `bench/sympycheck.py` over the field of degree d: the basis is not the
    standard one, and it is integral and maximal at both points."""
    monkeypatch.syspath_prepend(str(BENCH))
    from sympycheck import check_global_basis

    text = f"(x^{d}-3) + x*S + (x^{d}-3)*S^2"
    bounds = {f"x^{d}-3": 1}
    code = cli.main(["global-basis", "--operator", text, "--right-bound",
                     f"x^{d}-3=1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(payload["verified_points"]) == 2
    assert payload["basis"] != [[{"num": str(int(i == j)), "den": "1"}
                                 for j in range(2)] for i in range(2)]
    assert check_global_basis(text, bounds, payload) == []
