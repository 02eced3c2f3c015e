"""Exact arithmetic for the constant-field tower and univariate rational functions.

The tower is: rationals (``fractions.Fraction``) at the bottom, simple number
fields ``Q[t]/(m)`` above them, and on top of either of these the dense
univariate polynomials (:class:`Poly`) and rational functions
(:class:`RationalFunction`) that carry all valuations used elsewhere.

Everything here is immutable and exact; there is no floating point anywhere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import PrecintError

Rational = Fraction


class _Infinity:
    """The single value ``INFINITY`` used by all valuations.

    Compares greater than every integer, absorbs addition and subtraction
    of finite values, and equals only itself.
    """

    _instance: Optional["_Infinity"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("precint-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        # INFINITY - INFINITY = INFINITY, matching the convention used by
        # the shift-case value function.
        return self

    def __rsub__(self, other):
        raise ArithmeticError("cannot subtract INFINITY from a finite value")

    def __neg__(self):
        raise ArithmeticError("negative infinity is not a valuation value")


INFINITY = _Infinity()

Valuation = Union[int, _Infinity]


def _as_coeff(c):
    """Coerce a coefficient to Fraction, leaving NFElem values alone."""
    if isinstance(c, NFElem):
        return c
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


class Poly:
    """A dense univariate polynomial over Q or a number field.

    Coefficients are stored ascending with no trailing zeros; the zero
    polynomial has an empty coefficient tuple.  The indeterminate has no
    intrinsic name: the same object serves as a polynomial in x or in q
    depending on context.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def monomial(c, k: int) -> "Poly":
        return Poly((0,) * k + (c,))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the convention -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def order_at_zero(self) -> Valuation:
        """Index of the first nonzero coefficient; INFINITY for zero."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return INFINITY

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, NFElem)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(())
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scaled(self, c) -> "Poly":
        c = _as_coeff(c)
        return Poly(tuple(a * c for a in self.coeffs))

    def __divmod__(self, other: "Poly"):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.degree
        lead = other.leading
        if len(rem) - 1 < dv:
            return Poly(()), self
        quot = [Fraction(0)] * (len(rem) - dv)
        while len(rem) - 1 >= dv:
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dv:
                break
            k = len(rem) - 1 - dv
            c = rem[-1] / lead
            quot[k] = c
            for i, oc in enumerate(other.coeffs):
                rem[k + i] = rem[k + i] - c * oc
            rem.pop()
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading
        if lead == 1:
            return self
        return Poly(tuple(c / lead for c in self.coeffs))

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def eval(self, z):
        """Evaluate at a constant (Fraction or NFElem) by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def shift(self, z) -> "Poly":
        """Return p(X + z); with z a point value this is the substitution
        used by the q-deformation."""
        acc = Poly(())
        xz = Poly((z, 1))
        for c in reversed(self.coeffs):
            acc = acc * xz + c
        return acc

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, NFElem)):
            return Poly((other,))
        return NotImplemented

    # -- gcd machinery -------------------------------------------------------

    def _all_rational(self) -> bool:
        return all(not isinstance(c, NFElem) for c in self.coeffs)


def _int_primitive(cs: list) -> list:
    g = 0
    for c in cs:
        g = math.gcd(g, abs(c))
    if g in (0, 1):
        return cs
    return [c // g for c in cs]


def _int_pseudo_rem(u: list, v: list) -> list:
    """Pseudo-remainder of integer coefficient lists (ascending)."""
    dv = len(v) - 1
    lv = v[-1]
    r = list(u)
    while r and len(r) - 1 >= dv:
        lr = r[-1]
        off = len(r) - 1 - dv
        r = [lv * c for c in r]
        for i, vc in enumerate(v):
            r[off + i] -= lr * vc
        while r and r[-1] == 0:
            r.pop()
    return r


def _rational_to_int(p: Poly) -> list:
    denom = 1
    for c in p.coeffs:
        denom = denom * c.denominator // math.gcd(denom, c.denominator)
    return [int(c * denom) for c in p.coeffs]


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd.  Uses a primitive pseudo-remainder sequence over Z when
    both inputs are rational, plain Euclid otherwise."""
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return Poly.one()
    if a._all_rational() and b._all_rational():
        u = _int_primitive(_rational_to_int(a))
        v = _int_primitive(_rational_to_int(b))
        if len(u) < len(v):
            u, v = v, u
        while v:
            u, v = v, _int_primitive(_int_pseudo_rem(u, v))
        lead = Fraction(u[-1])
        return Poly([Fraction(c) / lead for c in u])
    u, v = a.monic(), b.monic()
    while not v.is_zero:
        r = u % v
        u, v = v, (r.monic() if not r.is_zero else r)
    return u.monic()


def poly_xgcd(a: Poly, b: Poly):
    """Extended gcd over a field: returns (g, s, t) with s*a + t*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = Poly.one(), Poly.zero()
    t0, t1 = Poly.zero(), Poly.one()
    while not r1.is_zero:
        q, rem = divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return r0, s0, t0
    lead = r0.leading
    inv = 1 / lead
    return r0.scaled(inv), s0.scaled(inv), t0.scaled(inv)


# ---------------------------------------------------------------------------
# Number fields
# ---------------------------------------------------------------------------


class NumberField:
    """A simple extension Q[t]/(m) with m monic irreducible over Q."""

    __slots__ = ("min_poly", "degree", "_reduction_rows", "_power_traces")

    _cache: dict = {}

    def __new__(cls, min_poly: Poly):
        key = min_poly.coeffs
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        self = super().__new__(cls)
        if min_poly.degree < 1:
            raise ValueError("a number field needs a nonconstant minimal polynomial")
        if min_poly.leading != 1:
            raise ValueError("minimal polynomial must be monic")
        if not min_poly._all_rational():
            raise ValueError("minimal polynomial must have rational coefficients")
        facs = factor(min_poly)
        if len(facs) != 1 or facs[0][1] != 1:
            raise ValueError("minimal polynomial is reducible over Q")
        object.__setattr__(self, "min_poly", min_poly)
        object.__setattr__(self, "degree", min_poly.degree)
        d = min_poly.degree
        # rows[k] = coordinates of t^(d+k) mod m, for products of degree < 2d-1
        rows = []
        cur = Poly.monomial(Fraction(1), d) % min_poly
        for _ in range(d - 1):
            rows.append(tuple(cur[i] for i in range(d)))
            cur = (cur * Poly.x()) % min_poly
        object.__setattr__(self, "_reduction_rows", tuple(rows))
        object.__setattr__(self, "_power_traces", None)
        cls._cache[key] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def __repr__(self):
        return f"NumberField({self.min_poly!r})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(("NumberField", self.min_poly.coeffs))

    def element(self, coords) -> "NFElem":
        cs = [Fraction(c) if not isinstance(c, Fraction) else c for c in coords]
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return NFElem(self, tuple(cs))

    def from_rational(self, c) -> "NFElem":
        return self.element([Fraction(c)])

    @property
    def generator(self) -> "NFElem":
        return self.element([0, 1] if self.degree > 1 else [-self.min_poly[0]])

    @property
    def zero(self) -> "NFElem":
        return self.element([])

    @property
    def one(self) -> "NFElem":
        return self.element([1])

    def _reduce_product(self, cs: list) -> tuple:
        d = self.degree
        out = list(cs[:d]) + [Fraction(0)] * (d - len(cs[:d]))
        for k, c in enumerate(cs[d:]):
            if c == 0:
                continue
            row = self._reduction_rows[k]
            for i in range(d):
                out[i] += c * row[i]
        return tuple(out)

    def power_trace(self, k: int) -> Fraction:
        """Trace of t^k, via Newton's identities on the minimal polynomial."""
        traces = self._power_traces
        if traces is None:
            d = self.degree
            m = self.min_poly
            traces = [Fraction(d)]
            for j in range(1, d):
                s = -j * m[d - j]
                for i in range(1, j):
                    s -= m[d - i] * traces[j - i]
                traces.append(s)
            object.__setattr__(self, "_power_traces", tuple(traces))
            traces = tuple(traces)
        return traces[k]


class NFElem:
    """An element of a number field in power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords: tuple):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("NFElem is immutable")

    def _coerce(self, other):
        if isinstance(other, NFElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("mixing elements of different number fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        return hash(("NFElem", self.field.min_poly.coeffs, self.coords))

    def __repr__(self):
        return f"NFElem({list(self.coords)!r})"

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NFElem(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NFElem(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coords, o.coords
        n = len(a)
        prod = [Fraction(0)] * (2 * n - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                prod[i + j] += ca * cb
        return NFElem(self.field, self.field._reduce_product(prod))

    __rmul__ = __mul__

    def inverse(self) -> "NFElem":
        """Multiplicative inverse via extended gcd with the minimal polynomial."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in a number field")
        p = Poly(self.coords)
        g, s, _ = poly_xgcd(p, self.field.min_poly)
        if g.degree != 0:
            raise PrecintError("minimal polynomial is not irreducible")
        inv = s.scaled(1 / g[0])
        return self.field.element([inv[i] for i in range(self.field.degree)])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def trace(self) -> Fraction:
        return sum(c * self.field.power_trace(k) for k, c in enumerate(self.coords))


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """A fraction of polynomials in canonical form.

    Canonical means: numerator and denominator coprime, denominator monic
    and nonzero, and zero represented as 0/1.  The same class serves as the
    field of rational functions in x over Q (or a number field) and as the
    field of rational functions in q used by the sequence solutions.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, *, _coprime: bool = False):
        # _coprime is an internal promise that num and den share no factor,
        # letting arithmetic that preserves coprimality skip the gcd
        num = num if isinstance(num, Poly) else Poly._coerce(num)
        if num is NotImplemented:
            raise TypeError("bad numerator")
        if den is None:
            den = Poly.one()
        else:
            den = den if isinstance(den, Poly) else Poly._coerce(den)
            if den is NotImplemented:
                raise TypeError("bad denominator")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = Poly.zero(), Poly.one()
        else:
            if not _coprime and den.degree > 0 and num.degree > 0:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                inv = 1 / lead
                num, den = num.scaled(inv), den.scaled(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- construction --------------------------------------------------------

    @staticmethod
    def zero() -> "RationalFunction":
        return RationalFunction(Poly.zero())

    @staticmethod
    def one() -> "RationalFunction":
        return RationalFunction(Poly.one())

    @staticmethod
    def x() -> "RationalFunction":
        return RationalFunction(Poly.x())

    @staticmethod
    def constant(c) -> "RationalFunction":
        return RationalFunction(Poly.constant(c))

    @staticmethod
    def _coerce(other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Poly):
            return RationalFunction(other)
        if isinstance(other, (int, Fraction, NFElem)):
            return RationalFunction(Poly((other,)))
        return NotImplemented

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("RationalFunction", self.num.coeffs, self.den.coeffs))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        # with coprime denominators the naive sum is already canonical
        g = poly_gcd(self.den, other.den)
        num = self.num * other.den + other.num * self.den
        if g.degree == 0:
            return RationalFunction(num, self.den * other.den, _coprime=True)
        return RationalFunction(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _coprime=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalFunction(Poly.zero())
        # cross-cancel so the product of the reduced parts is canonical
        a_num, b_den = self.num, other.den
        g1 = poly_gcd(a_num, b_den)
        if g1.degree > 0:
            a_num, b_den = a_num // g1, b_den // g1
        b_num, a_den = other.num, self.den
        g2 = poly_gcd(b_num, a_den)
        if g2.degree > 0:
            b_num, a_den = b_num // g2, a_den // g2
        return RationalFunction(a_num * b_num, a_den * b_den, _coprime=True)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFunction(self.den, self.num, _coprime=True)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n: int):
        if n < 0:
            return self.reciprocal() ** (-n)
        if n == 0:
            return RationalFunction.one()
        # powers of a coprime pair are coprime
        return RationalFunction(self.num ** n, self.den ** n, _coprime=True)

    def shift(self, z) -> "RationalFunction":
        """Substitute X -> X + z for a constant z; coprimality is preserved
        because substitution by X + z is a ring automorphism."""
        return RationalFunction(self.num.shift(z), self.den.shift(z),
                                _coprime=True)


# ---------------------------------------------------------------------------
# Valuations on rational functions
# ---------------------------------------------------------------------------


def _multiplicity(p: Poly, factor_poly: Poly) -> int:
    m = 0
    while True:
        q, r = divmod(p, factor_poly)
        if not r.is_zero:
            return m
        p = q
        m += 1


def nu_at_factor(f: RationalFunction, p: Poly) -> Valuation:
    """Order of the irreducible polynomial p in f (negative for poles)."""
    p = p.monic()
    if p.degree < 1:
        raise ValueError("valuation requires a nonconstant irreducible polynomial")
    if not is_irreducible(p):
        raise ValueError("valuation requires an irreducible polynomial")
    if f.is_zero:
        return INFINITY
    return _multiplicity(f.num, p) - _multiplicity(f.den, p)


def nu_infinity(f: RationalFunction) -> Valuation:
    """The valuation at infinity: deg(den) - deg(num); INFINITY for zero."""
    if f.is_zero:
        return INFINITY
    return f.den.degree - f.num.degree


# ---------------------------------------------------------------------------
# Factorization over Q (backed by sympy) and shift equivalence
# ---------------------------------------------------------------------------


# One operation factors a handful of polynomials (the extreme coefficients,
# their factors and the minimal polynomials of its points); the bound keeps
# a long-lived process from holding every polynomial it ever factored.
FACTOR_CACHE_SIZE = 256


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor_cached(coeffs: tuple):
    import sympy

    xsym = sympy.Symbol("x")
    expr = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
        xsym,
        domain="QQ",
    )
    _, factors = expr.factor_list()
    out = []
    for fac, mult in factors:
        cs = [Fraction(c.p, c.q) for c in reversed(fac.all_coeffs())]
        out.append((Poly(cs).monic(), int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return tuple(out)


def factor(p: Poly):
    """Monic irreducible factorization over Q as a tuple of (factor, multiplicity)."""
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not p._all_rational():
        raise ValueError("factorization is only supported over Q")
    if p.degree == 0:
        return ()
    return _factor_cached(p.coeffs)


def is_irreducible(p: Poly) -> bool:
    if p.degree < 1:
        return False
    facs = factor(p)
    return len(facs) == 1 and facs[0][1] == 1


def integer_shift(p: Poly, s: Poly) -> Optional[int]:
    """The integer n with s(X) = p(X - n), or None.

    Both arguments are expected monic irreducible; the candidate n is read
    off the subleading coefficients and then verified exactly.
    """
    if p.degree != s.degree or p.degree < 1:
        return None
    k = p.degree
    diff = p[k - 1] - s[k - 1]
    n = diff / k
    if n.denominator != 1:
        return None
    n = int(n)
    if p.shift(-n) == s:
        return n
    return None


# ---------------------------------------------------------------------------
# Algebraic points and orbits
# ---------------------------------------------------------------------------


def _orbit_normalize(min_poly: Poly) -> tuple:
    """Shift a monic irreducible polynomial so the mean of its roots lands
    in [0, 1); returns (normalized polynomial, applied shift)."""
    d = min_poly.degree
    mean = -min_poly[d - 1] / d
    s = math.floor(mean)
    if s == 0:
        return min_poly, 0
    return min_poly.shift(s), s


class AlgebraicPoint:
    """A point rho + offset, with rho a root of a shift-normalized minimal
    polynomial.  Conjugate points share one object; the orbit of the point
    is the set rho + Z."""

    __slots__ = ("min_poly", "offset")

    def __init__(self, min_poly: Poly, offset: int, _normalized: bool = False):
        if not _normalized:
            min_poly = min_poly.monic()
            if not is_irreducible(min_poly):
                raise ValueError("point requires an irreducible minimal polynomial")
            min_poly, s = _orbit_normalize(min_poly)
            offset = offset + s
        object.__setattr__(self, "min_poly", min_poly)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicPoint is immutable")

    @staticmethod
    def from_rational(c) -> "AlgebraicPoint":
        c = Fraction(c)
        return AlgebraicPoint(Poly((-c, 1)), 0)

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    @property
    def is_rational(self) -> bool:
        return self.min_poly.degree == 1

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("point is not rational")
        return -self.min_poly[0] + self.offset

    def orbit(self) -> "AlgebraicPoint":
        return AlgebraicPoint(self.min_poly, 0, _normalized=True)

    def shifted(self, n: int) -> "AlgebraicPoint":
        return AlgebraicPoint(self.min_poly, self.offset + n, _normalized=True)

    def same_orbit(self, other: "AlgebraicPoint") -> bool:
        return self.min_poly == other.min_poly

    def number_field(self) -> Optional[NumberField]:
        if self.is_rational:
            return None
        return NumberField(self.min_poly)

    def value(self):
        """The point as a constant: a Fraction, or generator + offset in
        the number field."""
        if self.is_rational:
            return self.rational_value
        return self.number_field().generator + self.offset

    def orbit_key(self) -> str:
        from .exprs import poly_str

        if self.min_poly == Poly.x():
            return "Z"
        return poly_str(self.min_poly, "x", compact=True)

    def __eq__(self, other):
        if not isinstance(other, AlgebraicPoint):
            return NotImplemented
        return self.min_poly == other.min_poly and self.offset == other.offset

    def __hash__(self):
        return hash(("AlgebraicPoint", self.min_poly.coeffs, self.offset))

    def __repr__(self):
        return f"AlgebraicPoint({self.min_poly!r}, {self.offset})"

    def __str__(self):
        if self.is_rational:
            return str(self.rational_value)
        key = self.orbit_key()
        if self.offset == 0:
            return f"root({key})"
        sign = "+" if self.offset > 0 else "-"
        return f"root({key}){sign}{abs(self.offset)}"


def galois_norm_uniformizer(point: AlgebraicPoint) -> Poly:
    """The minimal polynomial over Q of the point itself: the product of
    x - sigma(z) over all conjugates, a global uniformizer at the point."""
    return point.min_poly.shift(-point.offset)


def galois_trace_sum(g, point: AlgebraicPoint) -> RationalFunction:
    """Sum of sigma(g)/(x - sigma(z)) over the full set of conjugates.

    Computed as a trace in Q(x)[t]/(m(t)): writing w = x - offset, the
    quotient h(t) = (m(t) - m(w))/(t - w) satisfies 1/(w - rho) =
    h(rho)/m(w), so the sum is Tr(g*h(rho))/m(w).  No splitting field is
    ever constructed.
    """
    if point.is_rational:
        g = Fraction(g) if not isinstance(g, Fraction) else g
        pole = Poly((-point.rational_value, 1))
        return RationalFunction(Poly((g,)), pole)

    field = point.number_field()
    if isinstance(g, (int, Fraction)):
        g = field.from_rational(g)
    d = field.degree
    m = field.min_poly
    w = Poly((Fraction(-point.offset), Fraction(1)))  # w = x - offset, in x

    # Coefficients of h(t) = (m(t) - m(w)) / (t - w) via synthetic division;
    # entries are polynomials in x.
    h = [None] * d
    carry = Poly.constant(m[d])  # leading coefficient 1
    for j in range(d - 1, -1, -1):
        h[j] = carry
        carry = carry * w + Poly.constant(m[j])

    # E = g * h(rho) reduced mod m, coordinates in Q[x].
    prod = [Poly.zero() for _ in range(2 * d - 1)]
    for i, gc in enumerate(g.coords):
        if gc == 0:
            continue
        for j in range(d):
            prod[i + j] = prod[i + j] + h[j].scaled(gc)
    coords = list(prod[:d])
    for k in range(d, 2 * d - 1):
        if prod[k].is_zero:
            continue
        row = field._reduction_rows[k - d]
        for i in range(d):
            coords[i] = coords[i] + prod[k].scaled(row[i])

    trace_num = Poly.zero()
    for k in range(d):
        trace_num = trace_num + coords[k].scaled(field.power_trace(k))
    return RationalFunction(trace_num, galois_norm_uniformizer(point))
