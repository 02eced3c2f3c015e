"""Exact arithmetic for the constant-field tower and univariate rational functions.

The tower is: rationals (``fractions.Fraction``) at the bottom, simple number
fields ``Q[t]/(m)`` above them, and on top of either of these the dense
univariate polynomials (:class:`Poly`) and rational functions
(:class:`RationalFunction`) that carry all valuations used elsewhere.

A polynomial over Q holds Python-int numerators over one content-reduced
denominator, so its arithmetic runs on ints: products by one schoolbook
routine (`convolve`), division with remainder by one pseudo-division
(`_zx.pseudo_divmod`), Taylor shifts by synthetic division, and gcds (with
cofactors) and factorization over Q by the int-list routines of `_zx`.
Exact `Fraction` coefficients are rebuilt only for readers.
A number-field element is its residue modulo the minimal polynomial m,
held the same way: int numerators in the generator t over one
content-reduced denominator, so number fields run on the same kernel; its
inverse solves the int system of multiplication by it.  That is the one
form of a constant of the field: polynomials and series over the field
hold the elements themselves.  A product of lists of elements builds each
output coefficient as one int polynomial in t over that coefficient's
common denominator and reduces it mod m once, by int pseudo-division
(`NumberField._reduce`), not once per product.  The Taylor coefficients at
a point are its Hasse derivatives, each reduced once (`packed_taylor`).
Sums over the conjugates of a point come from Lagrange interpolation at the
roots of its minimal polynomial (`galois_trace_sum`), with no field trace.

Everything here is immutable and exact; there is no floating point anywhere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from . import _zx
from ._zx import convolve
from .errors import PrecintError


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


_set = object.__setattr__


def power(base, n: int, one):
    """base ** n for an int n >= 0 by square-and-multiply, starting from
    `one`; the one powering loop for polynomials, number-field elements and
    operators."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _rational_parts(c) -> Tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction."""
    if type(c) is int:
        return c, 1
    if isinstance(c, Fraction):
        return c.numerator, c.denominator
    if isinstance(c, int):
        return int(c), 1
    raise TypeError(f"unsupported coefficient type {type(c).__name__}")


def from_exact(values: Sequence) -> Tuple[list, int]:
    """Exact constants as `Poly` and `QSeries` hold them: int numerators over
    their least common denominator, or, when a number-field element is
    among them, elements of that field over 1; elements of a second field
    are refused."""
    field = next((c.field for c in values if type(c) is NFElem), None)
    if field is not None:
        for c in values:
            if type(c) is NFElem and c.field is not field and c.field != field:
                raise ValueError("mixing elements of different number fields")
        return [c if type(c) is NFElem else field.from_rational(c)
                for c in values], 1
    parts = [_rational_parts(c) for c in values]
    den = 1
    for _, d in parts:
        den = den * d // math.gcd(den, d)
    return [n * (den // d) for n, d in parts], den


def lowest_terms(nums: Sequence, den: int) -> Tuple[Sequence, int]:
    """Nonempty int numerators over a nonzero den with their common factor
    divided out and the denominator made positive."""
    if den < 0:
        nums, den = [-c for c in nums], -den
    g = math.gcd(den, *nums)
    if g != 1:
        nums, den = [c // g for c in nums], den // g
    return nums, den


def summands(a: Sequence, da: int, b: Sequence, db: int) -> Tuple[Sequence, Sequence, int]:
    """Two nonempty numerator lists as terms of one sum: ints over their
    common denominator, or, with a number field involved, elements of that
    field over 1 (`NumberField._lift`)."""
    if type(a[0]) is int and type(b[0]) is int:
        if da == db:
            return a, b, da
        g = math.gcd(da, db)
        return [c * (db // g) for c in a], [c * (da // g) for c in b], da // g * db
    field = _field_of(a, b)
    return field._lift(a, da), field._lift(b, db), 1


def multiply(a: Sequence, da: int, b: Sequence, db: int,
             n: Optional[int] = None) -> Tuple[list, int]:
    """The product of two nonempty numerator lists (only its first n
    coefficients when n is given), as `Poly` holds them: ints over the
    product of their denominators, or, with a number field involved,
    elements of that field over 1, each coefficient summed on the elements'
    numerators and reduced once.  The int lists of a number-field run (the
    certificate's) stay on `convolve`."""
    if type(a[0]) is int and type(b[0]) is int:
        return convolve(a, b, n), da * db
    field = _field_of(a, b)
    a, b = field._lift(a, da), field._lift(b, db)
    size = len(a) + len(b) - 1
    if n is not None and n < size:
        size = n
    return [field._reduce(*_packed_coefficient(a, b, k)) for k in range(size)], 1


class Poly:
    """A dense univariate polynomial over Q or a number field.

    Over Q the coefficients are Python-int numerators `nums` (ascending, no
    trailing zeros) over one positive int denominator `den`, content-reduced
    (gcd(den, *nums) == 1), so that equal polynomials have equal fields and
    hashes and every product, sum, division and Taylor shift runs on ints.
    Over a number field every entry of `nums` is an NFElem and `den` is 1.
    `coeffs` and `p[k]` rebuild the exact coefficients (Fractions or
    NFElems) for readers.  The zero polynomial has no numerators.  The
    indeterminate has no intrinsic name: the same object serves as a
    polynomial in x or in q depending on context.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        self._init(list(coeffs), None)

    def _init(self, nums: Sequence, den: Optional[int]) -> None:
        if den is None:
            nums, den = from_exact(nums)
        k = len(nums)
        while k and not nums[k - 1]:
            k -= 1
        nums = nums[:k]
        if not nums:
            den = 1
        elif den != 1:
            nums, den = lowest_terms(nums, den)
        _set(self, "nums", tuple(nums))
        _set(self, "den", den)
        _set(self, "_coeffs", None)

    @classmethod
    def _of(cls, nums: Sequence, den: Optional[int] = 1) -> "Poly":
        """From int numerators over a nonzero int den, from number-field
        elements over 1, or from exact constants over None; trims trailing
        zeros and reduces the content."""
        p = object.__new__(cls)
        p._init(nums, den)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((c,))

    # -- basic queries -------------------------------------------------------

    @property
    def rational(self) -> bool:
        """Whether the coefficients are ints over `den` (no number field)."""
        nums = self.nums
        return not nums or type(nums[-1]) is int

    @property
    def coeffs(self) -> tuple:
        """The exact coefficients, ascending: Fractions over Q, NFElems
        over a number field (rebuilt once, for readers)."""
        cs = self._coeffs
        if cs is None:
            cs = tuple(Fraction(c, self.den) for c in self.nums) if self.rational \
                else self.nums
            _set(self, "_coeffs", cs)
        return cs

    @property
    def degree(self) -> int:
        """Degree, with the convention -1 for the zero polynomial."""
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def leading(self):
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return self[len(self.nums) - 1]

    def __getitem__(self, k: int):
        if 0 <= k < len(self.nums):
            c = self.nums[k]
            return Fraction(c, self.den) if type(c) is int else c
        return Fraction(0)

    def order_at_zero(self) -> Valuation:
        """Index of the first nonzero coefficient; INFINITY for zero."""
        for i, c in enumerate(self.nums):
            if c:
                return i
        return INFINITY

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, Poly):
            if self.rational and other.rational:
                return self.den == other.den and self.nums == other.nums
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, NFElem)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.nums, self.den))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.nums:
            return self
        if not self.nums:
            return other
        a, b, den = summands(self.nums, self.den, other.nums, other.den)
        return Poly._of(_zx._add(a, b), den)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of([-c for c in self.nums], self.den)

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
        if not self.nums or not other.nums:
            return _ZERO
        nums, den = multiply(self.nums, self.den, other.nums, other.den)
        return Poly._of(nums, den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n, _ONE)

    def __divmod__(self, other: "Poly"):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.nums) < len(other.nums):
            return _ZERO, self
        if self.rational and other.rational:
            # s * a = q * b + r over Z; then divide out s and the dens
            q, r, s = _zx.pseudo_divmod(self.nums, other.nums)
            den = s * self.den
            return Poly._of([x * other.den for x in q], den), Poly._of(r, den)
        field = _field_of(self.nums, other.nums)
        rem = field._lift(self.nums, self.den)
        b = field._lift(other.nums, other.den)
        inv = b[-1].inverse()
        dv = len(b) - 1
        quot = [0] * (len(rem) - dv)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + dv] * inv
            quot[k] = c
            for i, bc in enumerate(b):
                rem[k + i] = rem[k + i] - c * bc
        return Poly._of(quot), Poly._of(rem[:dv])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if not self.nums:
            return self
        lead = self.nums[-1]
        if type(lead) is int:
            return self if lead == self.den else Poly._of(self.nums, lead)
        return self if lead == 1 else self * (1 / lead)

    def derivative(self) -> "Poly":
        return Poly._of(_zx._derivative(self.nums), self.den)

    def eval(self, z):
        """Evaluate at a constant (Fraction or NFElem) by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def shift(self, z) -> "Poly":
        """Return p(X + z); with z a point value this is the substitution
        used by the q-deformation."""
        return self if not z else Poly._of(*taylor_shift(self, z))

    @staticmethod
    def _coerce(other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction, NFElem)):
            return Poly((other,))
        return NotImplemented


_ZERO = Poly._of(())
_ONE = Poly._of((1,))


def taylor_shift(p: Poly, z, terms: Optional[int] = None) -> Tuple[list, int]:
    """The coefficients of p(X + z), lowest first.  Given `terms`, they
    stop once that many from the first nonzero one on are known (fewer
    when p runs out: the rest are zero).

    Returns (nums, den) as `Poly` holds them.  Over Q with a rational z
    they are int numerators over an int den, by synthetic division in place
    (`cs[i] += z*cs[i+1]`, one pass per coefficient; for z = zn/zd,
    zd^n * p(X + z) is r(Y + zn) at Y = zd*X with r_i = c_i * zd^(n-i), all
    on ints).  Over a number field they are NFElems over 1, the Taylor
    coefficients of `packed_taylor`.  A constant p is returned as it is, so
    a rational constant stays over Q at any point.
    """
    n = len(p.nums) - 1
    if n < 1 or not z:
        return list(p.nums), p.den
    if not p.rational or isinstance(z, NFElem):
        field = z.field if type(z) is NFElem else _field_of(p.nums)
        return packed_taylor(p, z, field, terms), 1
    zn, zd = _rational_parts(z)
    if zd == 1:
        cs = list(p.nums)
    else:
        cs, scale = [0] * (n + 1), 1
        for i in range(n, -1, -1):
            cs[i] = p.nums[i] * scale
            scale *= zd
    den = p.den * zd ** n
    lead = None
    for j in range(n):
        for i in range(n - 1, j - 1, -1):
            cs[i] += zn * cs[i + 1]
        if terms is not None:
            if lead is None and cs[j]:
                lead = j
            if lead is not None and j - lead + 1 >= terms:
                cs = cs[:j + 1]
                break
    if zd != 1:
        scale = 1
        for k in range(len(cs)):
            cs[k] *= scale
            scale *= zd
    return cs, den


def poly_gcd(a: Poly, b: Poly) -> Tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g) with g the monic gcd of a and b (zero when both are).

    Over Q this is `_zx.gcd` on the int numerators: the heuristic GCD of
    Char, Geddes and Gonnet (1989), which proves its candidate by exact
    division and so yields the cofactors, with a primitive PRS gcd behind
    it in the rare case where the heuristic gives up; over a number field
    it is Euclid's algorithm, with exact divisions for the cofactors.
    """
    if a.is_zero or b.is_zero:
        if a.is_zero and b.is_zero:
            return _ZERO, _ZERO, _ZERO
        nonzero = b if a.is_zero else a
        g, lead = nonzero.monic(), Poly.constant(nonzero.leading)
        return (g, _ZERO, lead) if a.is_zero else (g, lead, _ZERO)
    if a.degree == 0 or b.degree == 0:
        return _ONE, a, b
    if a.rational and b.rational:
        h, cf, cg = _zx.gcd(a.nums, b.nums)
        lead = h[-1]
        return (Poly._of(h, lead),
                Poly._of([c * lead for c in cf], a.den),
                Poly._of([c * lead for c in cg], b.den))
    u, v = a.monic(), b.monic()
    while not v.is_zero:
        r = u % v
        u, v = v, r.monic()
    return u, a // u, b // u


# ---------------------------------------------------------------------------
# Number fields
# ---------------------------------------------------------------------------


class NumberField:
    """A simple extension Q[t]/(m) with m monic irreducible over Q."""

    __slots__ = ("min_poly", "degree")

    def __init__(self, min_poly: Poly):
        if min_poly.degree < 1:
            raise ValueError("a number field needs a nonconstant minimal polynomial")
        if min_poly.leading != 1:
            raise ValueError("minimal polynomial must be monic")
        if not min_poly.rational:
            raise ValueError("minimal polynomial must have rational coefficients")
        if not is_irreducible(min_poly):
            raise ValueError("minimal polynomial is reducible over Q")
        _set(self, "min_poly", min_poly)
        _set(self, "degree", min_poly.degree)

    def __setattr__(self, name, value):
        raise AttributeError("NumberField is immutable")

    def __repr__(self):
        return f"NumberField({self.min_poly!r})"

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.min_poly == other.min_poly

    def __hash__(self):
        return hash(("NumberField", self.min_poly))

    def element(self, coords) -> "NFElem":
        """The element sum coords[k] * t^k, from at most `degree` rationals."""
        if len(coords) > self.degree:
            raise ValueError("too many coordinates")
        return self._reduce(*from_exact(coords))

    def from_rational(self, c) -> "NFElem":
        n, d = _rational_parts(c)
        return NFElem(self, (n,), d) if n else self.zero

    @property
    def generator(self) -> "NFElem":
        return self.element([0, 1] if self.degree > 1 else [-self.min_poly[0]])

    @property
    def zero(self) -> "NFElem":
        return NFElem(self, (), 1)

    @property
    def one(self) -> "NFElem":
        return NFElem(self, (1,), 1)

    def _reduce(self, r: List[int], den: int) -> "NFElem":
        """The element r(t)/den for int coefficients r of any degree: r is
        reduced mod m by int pseudo-division (m = M/lc with M the int
        numerators of m, so a non-integral m is no special case), scaling
        by lc only when a step needs it, then trimmed and content-reduced
        once.  Below the field's degree (a sum of elements) only the
        trimming and the content reduction are left.  The list r is
        consumed."""
        # a remainder-only loop of its own, not `_zx.pseudo_divmod`: routed
        # through it, a call took 0.6-0.9 us longer at degree 2-3 (about 2.3
        # against 3.0 us at degree 2, best of 7 x 20,000 calls on a shared
        # 2-vCPU Xeon VM), and an `algebraic-orbits` round makes 2,292 calls
        m = self.min_poly.nums
        d, lc = len(m) - 1, m[-1]
        for k in range(len(r) - 1, d - 1, -1):
            c = r[k]
            if not c:
                continue
            if lc != 1:
                if c % lc:
                    s = lc // math.gcd(c, lc)
                    r = [x * s for x in r[:k + 1]]
                    den *= s
                    c = r[k]
                c //= lc
            for i in range(d):
                r[k - d + i] -= c * m[i]
        k = min(len(r), d)
        while k and not r[k - 1]:
            k -= 1
        if not k:
            return self.zero
        r = r[:k]
        if den != 1:
            r, den = lowest_terms(r, den)
        return NFElem(self, tuple(r), den)

    def _inverse(self, a: Sequence[int], den: int) -> "NFElem":
        """The inverse of the nonzero residue a(t)/den: the s with a*s = 1
        mod m, from the d x d system of multiplication by a on 1, t, ...,
        t^(d-1).  Column j holds lc^j * (a*t^j mod m), ints (the step
        t*col subtracts the top entry times M), so s_j = u_j * den * lc^j
        for the solution u of the int system C u = e_0.  That system is
        solved by fraction-free (Bareiss) elimination and one exact
        back-substitution of y = det * u, which is integral."""
        m = self.min_poly.nums
        d, lc = len(m) - 1, m[-1]
        col = list(a) + [0] * (d - len(a))
        cols = [col]
        for _ in range(d - 1):
            top = col[-1]
            col = [0] + col[:-1]
            if lc != 1:
                col = [lc * c for c in col]
            if top:
                col = [c - top * mi for c, mi in zip(col, m)]
            cols.append(col)
        rows = [[c[i] for c in cols] + [int(i == 0)] for i in range(d)]
        prev = 1
        for k in range(d):
            p = next((i for i in range(k, d) if rows[i][k]), None)
            if p is None:
                raise PrecintError("minimal polynomial is not irreducible")
            rows[k], rows[p] = rows[p], rows[k]
            top = rows[k]
            pivot = top[k]
            for i in range(k + 1, d):
                row, c = rows[i], rows[i][k]
                rows[i] = [(pivot * x - c * y) // prev for x, y in zip(row, top)]
            prev = pivot
        y = [0] * d
        for i in range(d - 1, -1, -1):
            row = rows[i]
            acc = prev * row[d]
            for j in range(i + 1, d):
                acc -= row[j] * y[j]
            y[i] = acc // row[i]
        scale = den
        for j in range(d):
            y[j] *= scale
            scale *= lc
        k = d
        while not y[k - 1]:
            k -= 1
        nums, den = lowest_terms(y[:k], prev)
        return NFElem(self, tuple(nums), den)

    def _lift(self, values: Sequence, den: int) -> List["NFElem"]:
        """Numerators over den as elements of this field: its elements
        (over 1) pass through, and an int c becomes c/den."""
        out = []
        for c in values:
            if type(c) is NFElem:
                if c.field is not self and c.field != self:
                    raise ValueError("mixing elements of different number fields")
                out.append(c)
            elif c:
                g = math.gcd(c, den)
                out.append(NFElem(self, (c // g,), den // g))
            else:
                out.append(self.zero)
        return out


class NFElem:
    """An element of a number field, held as its residue modulo the minimal
    polynomial m, the way a `Poly` over Q holds its coefficients: int
    numerators `nums` in the generator t (a tuple, ascending, no trailing
    zero, fewer than the field's degree) over a positive int `den` that
    shares no factor with them; zero has no numerators, over 1.  Every
    element is built in this form, so `==` and `hash` read it as it is.
    Sums are int sums, products int convolutions reduced mod m once
    (`NumberField._reduce`) and the inverse an int system
    (`NumberField._inverse`), so number-field arithmetic runs on the
    integer kernel too.  The public constructors are
    `NumberField.element`, `from_rational`, `zero` and `one`."""

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, nums: Tuple[int, ...], den: int):
        _set(self, "field", field)
        _set(self, "nums", nums)
        _set(self, "den", den)

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
    def poly(self) -> Poly:
        """The residue as a `Poly` in t, for readers."""
        return Poly._of(self.nums, self.den)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash(("NFElem", self.field.min_poly, self.nums, self.den))

    def __repr__(self):
        return f"NFElem({self.poly!r})"

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.nums:
            return self
        if not self.nums:
            return o
        return self.field._reduce(*_packed_sum(self.nums, self.den, o.nums, o.den))

    __radd__ = __add__

    def __neg__(self):
        return NFElem(self.field, tuple([-c for c in self.nums]), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.nums or not o.nums:
            return self.field.zero
        return self.field._reduce(convolve(self.nums, o.nums), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "NFElem":
        """Multiplicative inverse, on ints (`NumberField._inverse`)."""
        if not self.nums:
            raise ZeroDivisionError("inverse of zero in a number field")
        return self.field._inverse(self.nums, self.den)

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
        return power(self if n >= 0 else self.inverse(), abs(n), self.field.one)


# ---------------------------------------------------------------------------
# Number-field lists on ints
# ---------------------------------------------------------------------------

# The kernels below take lists of elements (a list of int numerators over Q
# that meets one is lifted first, `NumberField._lift`), read each element's
# int numerators in t over its own denominator, build each output
# coefficient as one int polynomial in t over that coefficient's common
# denominator and reduce it mod m once (`NumberField._reduce`).  A whole list
# is never put over one denominator: the lcm would inflate every numerator.


def _field_of(*lists: Sequence) -> NumberField:
    """The field of the first number-field element in the lists."""
    return next(c.field for values in lists for c in values if type(c) is NFElem)


def _packed_sum(a: Sequence[int], da: int, b: Sequence[int], db: int) -> Tuple[list, int]:
    """a/da + b/db for int polynomials in t, over their common denominator."""
    if da != db:
        g = math.gcd(da, db)
        a, b, da = [c * (db // g) for c in a], [c * (da // g) for c in b], da // g * db
    return _zx._add(a, b), da


def _packed_coefficient(a: Sequence[NFElem], b: Sequence[NFElem], k: int) -> Tuple[list, int]:
    """Coefficient k of the product of two lists of elements, unreduced:
    the sum of the int convolutions of the numerators of a[i] and b[k-i]
    over their common denominator, ([], 1) when every term is zero."""
    acc: list = []
    den = 1
    for i in range(max(0, k - len(b) + 1), min(k + 1, len(a))):
        ea, eb = a[i], b[k - i]
        an, bn = ea.nums, eb.nums
        if not an or not bn:
            continue
        scale, td = 1, ea.den * eb.den
        if not acc:
            den = td
        elif td != den:
            g = math.gcd(den, td)
            up = td // g
            if up != 1:
                acc = [c * up for c in acc]
            scale = den // g
            den *= up
        size = len(an) + len(bn) - 1
        if len(acc) < size:
            acc.extend([0] * (size - len(acc)))
        for p, x in enumerate(an):
            if x:
                if scale != 1:
                    x *= scale
                for q, y in enumerate(bn):
                    acc[p + q] += x * y
    return acc, den


def field_quotient(field: NumberField, num: Sequence[NFElem], den: Sequence[NFElem],
                   terms: int) -> List[NFElem]:
    """The first `terms` coefficients of num / den over the field, for lists
    of elements whose denominator has a nonzero constant term d0:
    out_k = (num_k - sum out_i den_(k-i)) / d0, the sum one coefficient
    reduced once, then multiplied by the inverse of d0, computed once on
    ints."""
    inv = den[0].inverse()
    out: List[NFElem] = []
    for k in range(terms):
        acc, acc_den = _packed_coefficient(out, den, k)
        nk = num[k] if k < len(num) else field.zero
        out.append(field._reduce(*_packed_sum(nk.nums, nk.den, [-c for c in acc], acc_den))
                   * inv)
    return out


def packed_taylor(p: Poly, z, field: NumberField,
                  terms: Optional[int] = None) -> List[NFElem]:
    """The coefficients of p(X + z) over the field, lowest first:
    coefficient k is the Hasse derivative sum_i C(i, k) p_i z^(i-k),
    reduced mod m once.  Given `terms`, they stop once that many from the
    first nonzero one on are known (fewer when p runs out: the rest are
    zero).

    Every point precint shifts to is t + n.  For p over Q and z = t + c or
    a rational c, p is first shifted by c on ints (`taylor_shift`), and
    derivative k is the int polynomial sum_i C(i, k) P_i t^(i-k) in t (the
    constant P_k when z = c).  Any other p or z evaluates the derivatives
    by Horner's rule on the elements' numerators, each one built as one int
    polynomial in t over its own denominator.
    """
    if type(z) is NFElem:
        zn, zd = z.nums, z.den
    else:
        c, zd = _rational_parts(z)
        zn = (c,) if c else ()
    n = len(p.nums) - 1
    if p.rational and (len(zn) < 2 or len(zn) == 2 and zn[1] == zd):
        cs, den = taylor_shift(p, Fraction(zn[0], zd) if zn else 0)

        def derivative(k: int) -> Tuple[list, int]:
            if len(zn) < 2:
                return [cs[k]], den
            return [math.comb(i, k) * cs[i] for i in range(k, n + 1)], den
    else:
        pk = field._lift(p.nums, p.den)

        def derivative(k: int) -> Tuple[list, int]:
            acc: list = []
            den = 1
            for i in range(n, k - 1, -1):
                if acc:
                    acc, den = convolve(acc, zn), den * zd
                c = pk[i]
                if c:
                    b = math.comb(i, k)
                    acc, den = _packed_sum(acc, den, [b * x for x in c.nums], c.den)
            return acc, den
    out: List[NFElem] = []
    lead = None
    for k in range(n + 1):
        out.append(field._reduce(*derivative(k)))
        if terms is not None:
            if lead is None and out[k]:
                lead = k
            if lead is not None and k - lead + 1 >= terms:
                break
    return out


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
                _, num, den = poly_gcd(num, den)
            lead = den.leading
            if lead != 1:
                inv = 1 / lead
                num, den = num * inv, den * inv
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
        return hash(("RationalFunction", self.num, self.den))

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
        # a/(g*b') + c/(g*d') = (a*d' + c*b')/(g*b'*d') with b', d' coprime:
        # the numerator shares no factor with b'*d', so only a factor of g
        # can cancel (Henrici); with g = 1 the naive sum is canonical
        g, b1, d1 = poly_gcd(self.den, other.den)
        num = self.num * d1 + other.num * b1
        if g.degree == 0:
            return RationalFunction(num, self.den * other.den, _coprime=True)
        _, num, g = poly_gcd(num, g)
        return RationalFunction(num, b1 * d1 * g, _coprime=True)

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
        _, a_num, b_den = poly_gcd(self.num, other.den)
        _, b_num, a_den = poly_gcd(other.num, self.den)
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
# Factorization over Q (Zassenhaus on the int numerators)
# ---------------------------------------------------------------------------


# One operation factors a handful of polynomials (the extreme coefficients,
# their factors and the minimal polynomials of its points); the bound keeps
# a long-lived process from holding every polynomial it ever factored.
FACTOR_CACHE_SIZE = 256


@functools.lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factor_cached(p: Poly):
    out = [(Poly._of(g, g[-1]), m) for g, m in _zx.factor(p.nums)]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return tuple(out)


def factor(p: Poly):
    """Monic irreducible factorization over Q as a tuple of (factor,
    multiplicity), sorted by degree and then coefficients.

    The numerators are factored over Z by `_zx.factor`: content, powers of
    x, Yun's squarefree decomposition, then Zassenhaus (factors modulo a
    small prime, Hensel lifting, recombination by subsets with trial
    division).  Raises PrecintError when recombination would need more
    than `_zx.MAX_MODULAR_FACTORS` modular factors."""
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not p.rational:
        raise ValueError("factorization is only supported over Q")
    if p.degree == 0:
        return ()
    return _factor_cached(p)


def is_irreducible(p: Poly) -> bool:
    if p.degree < 1:
        return False
    facs = factor(p)
    return len(facs) == 1 and facs[0][1] == 1


# ---------------------------------------------------------------------------
# Algebraic points and orbits
# ---------------------------------------------------------------------------


def _orbit_normalize(min_poly: Poly) -> tuple:
    """Shift a monic irreducible polynomial so the mean of its roots lands
    in [0, 1); returns (normalized polynomial, applied shift).

    This is the one identity of an orbit: the roots of two such polynomials
    lie in one orbit rho + Z exactly when their normal forms agree, and the
    shift is then the offset of the roots from rho.  `AlgebraicPoint` names
    points and orbits by it, and `ore.root_offsets` finds a coefficient's
    roots on an orbit by it."""
    d = min_poly.degree
    mean = -min_poly[d - 1] / d
    s = math.floor(mean)
    if s == 0:
        return min_poly, 0
    return min_poly.shift(s), s


# The highest degree of a point, hence of the number field its orbit's
# arithmetic runs in.  The cost climbs steeply with the degree: the orbit
# of `(x^d-3) + x*S + (x^d-3)*S^2` at `x^d-3=3` takes about 2.5 s at d=8
# and 18 s at d=12, and did not finish in 300 s at d=16 (one process on a
# shared 2-vCPU VM).  A point named by the user or an orbit detected in an
# operator of higher degree is refused at once, before any table is built.
MAX_FIELD_DEGREE = 12


class AlgebraicPoint:
    """A point rho + offset, with rho a root of a shift-normalized minimal
    polynomial.  Conjugate points share one object; the orbit of the point
    is the set rho + Z.  Its degree is at most MAX_FIELD_DEGREE."""

    __slots__ = ("min_poly", "offset")

    def __init__(self, min_poly: Poly, offset: int, _normalized: bool = False):
        if not _normalized:
            if min_poly.degree > MAX_FIELD_DEGREE:
                from .exprs import poly_str

                raise PrecintError(
                    f"a root of {poly_str(min_poly.monic(), 'x')} has degree "
                    f"{min_poly.degree}, more than the limit of {MAX_FIELD_DEGREE} "
                    f"on the degree of a point")
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
        return hash(("AlgebraicPoint", self.min_poly, self.offset))

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
    """Sum of sigma(g)/(x - sigma(z)) over the conjugates of z = rho + offset.

    Lagrange interpolation at the roots of the minimal polynomial m of rho
    gives sum_sigma b(sigma rho)/(m'(sigma rho)*(w - sigma rho)) = b(w)/m(w)
    for deg b < deg m; with b = g*m' mod m and w = x - offset that is the
    sum, in lowest terms as m is irreducible (m' = 1 at a rational point).
    """
    m = point.min_poly
    if isinstance(g, NFElem):
        if g.field.min_poly != m:
            raise ValueError("mixing elements of different number fields")
        g = g.poly
    b = (m.derivative() * g) % m
    return RationalFunction(b.shift(-point.offset), galois_norm_uniformizer(point),
                            _coprime=True)
