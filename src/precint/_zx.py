"""Polynomials over Z on Python ints: gcd with cofactors and factorization.

A polynomial here is a sequence of ints, lowest degree first with no
trailing zero, as `Poly.nums` holds the numerators of a polynomial over Q.
`gcd` is the heuristic GCD of Char, Geddes and Gonnet (1989), with a
primitive PRS gcd behind it for the rare case where the heuristic gives
up.  `factor` splits off the content and the powers of x, makes a
squarefree decomposition (Yun 1976) and factors each part by Zassenhaus's
algorithm: a factorization modulo a small prime (distinct-degree, then
equal-degree by Cantor and Zassenhaus), Hensel lifting past the Mignotte
bound, and recombination of the lifted factors by subsets with trial
division (von zur Gathen and Gerhard, *Modern Computer Algebra*, ch. 14-15).

Every result is exact; the only heuristics decide how fast it is found.
`convolve`, the product routine for int coefficient lists, and
`pseudo_divmod`, the one long division over Z, live here so that `fields`
shares them; `fields` multiplies lists of number-field constants on their
packed int numerators and reduces each output coefficient once.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import List, Optional, Sequence, Tuple

from .errors import PrecintError

# Recombination tries subsets of the modular factors, a number exponential
# in their count; a polynomial that needs more than this many at every
# prime tried is refused (the cyclotomic x^n - 1 for n <= 30 needs at most
# 13, a Swinnerton-Dyer polynomial of degree 2^k at least 2^(k-1)).
MAX_MODULAR_FACTORS = 15

# How many evaluation points the heuristic gcd tries before giving up, and
# how many primes without a repeated factor modulo p `factor` compares.
_HEU_GCD_TRIES = 6
_PRIME_TRIES = 3

Int = List[int]


# ---------------------------------------------------------------------------
# Arithmetic over Z
# ---------------------------------------------------------------------------


def _trim(f: Int) -> Int:
    while f and not f[-1]:
        f.pop()
    return f


def _add(a: Sequence[int], b: Sequence[int]) -> Int:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _sub(a: Sequence[int], b: Sequence[int]) -> Int:
    return _add(a, [-c for c in b])


def convolve(a: Sequence, b: Sequence, n: Optional[int] = None) -> list:
    """The coefficients of the product of two int coefficient lists,
    lowest first; only the first n of them when n is given."""
    size = len(a) + len(b) - 1
    if n is not None and n < size:
        size = n
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[:size - i]):
                out[i + j] += x * y
    return out


def _mul(a: Sequence[int], b: Sequence[int]) -> Int:
    return convolve(a, b) if a and b else []


def _derivative(f: Sequence[int]) -> Int:
    return [i * c for i, c in enumerate(f)][1:]


def _primitive(f: Sequence[int]) -> Int:
    """f divided by its content, with a positive leading coefficient."""
    c = math.gcd(*f)
    if f[-1] < 0:
        c = -c
    return list(f) if c == 1 else [x // c for x in f]


def _exact_quotient(f: Sequence[int], g: Sequence[int]) -> Optional[Int]:
    """f / g when the nonzero g divides f over Z, else None; gives up at
    the first quotient coefficient that is not an int."""
    dg = len(g) - 1
    if len(f) <= dg:
        return [] if not f else None
    if g[0] and f[0] % g[0]:
        return None
    lg = g[-1]
    r = list(f)
    q = [0] * (len(f) - dg)
    for k in range(len(q) - 1, -1, -1):
        c, m = divmod(r[k + dg], lg)
        if m:
            return None
        if c:
            q[k] = c
            for i in range(dg):
                r[k + i] -= c * g[i]
    return None if any(r[:dg]) else q


def pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> Tuple[Int, Int, int]:
    """(q, r, s) with s*a = q*b + r over Z, len(r) < len(b) and s > 0, for
    a nonzero b: long division that scales by a factor of lc(b) only when a
    step needs it, so s = 1 when b is monic or divides a in Z[x]."""
    lb, db = b[-1], len(b) - 1
    r = list(a)
    if len(r) <= db:
        return [], r, 1
    q = [0] * (len(r) - db)
    s = 1
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db]
        if not c:
            continue
        if c % lb:
            m = abs(lb) // math.gcd(c, lb)
            r = [x * m for x in r]
            q = [x * m for x in q]
            s *= m
            c *= m
        c //= lb
        q[k] = c
        for i, bc in enumerate(b):
            r[k + i] -= c * bc
    return q, _trim(r[:db]), s


def _symmetric(f: Sequence[int], m: int) -> Int:
    """f with its coefficients reduced into (-m/2, m/2]."""
    half = m // 2
    out = []
    for c in f:
        c %= m
        out.append(c - m if c > half else c)
    return _trim(out)


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def _interpolate(h: int, x: int) -> Int:
    """The polynomial with coefficients in (-x/2, x/2] whose value at x is h."""
    out, half = [], x // 2
    while h:
        c = h % x
        if c > half:
            c -= x
        out.append(c)
        h = (h - c) // x
    return out


def _value(f: Sequence[int], x: int) -> int:
    v = 0
    for c in reversed(f):
        v = v * x + c
    return v


def heu_gcd(f: Sequence[int], g: Sequence[int]) -> Optional[Tuple[Int, Int, Int]]:
    """(h, f/h, g/h) with h a gcd of f and g, both of degree >= 1, by the
    heuristic of Char, Geddes and Gonnet: the int gcd of the values at a
    large point x, read back as a polynomial in x.  A candidate (or a
    cofactor read back the same way) is kept only when exact division
    proves it, which also yields the cofactors; None after the last point."""
    content = math.gcd(math.gcd(*f), math.gcd(*g))
    if content != 1:
        f, g = [c // content for c in f], [c // content for c in g]
    f_norm, g_norm = max(map(abs, f)), max(map(abs, g))
    bound = 2 * min(f_norm, g_norm) + 29
    x = max(min(bound, 99 * math.isqrt(bound)),
            2 * min(f_norm // abs(f[-1]), g_norm // abs(g[-1])) + 4)
    for _ in range(_HEU_GCD_TRIES):
        fx, gx = _value(f, x), _value(g, x)
        if fx and gx:
            hx = math.gcd(fx, gx)
            h = _primitive(_interpolate(hx, x))
            cf = _exact_quotient(f, h)
            cg = None if cf is None else _exact_quotient(g, h)
            if cg is None:
                cf = _interpolate(fx // hx, x)
                h = _exact_quotient(f, cf)
                cg = None if h is None else _exact_quotient(g, h)
            if cg is None:
                cg = _interpolate(gx // hx, x)
                h = _exact_quotient(g, cg)
                cf = None if h is None else _exact_quotient(f, h)
            if cf is not None:
                return [c * content for c in h], cf, cg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    return None


def prs_gcd(f: Sequence[int], g: Sequence[int]) -> Tuple[Int, Int, Int]:
    """(h, f/h, g/h) with h the gcd of the nonzero f and g, its leading
    coefficient positive, by the primitive pseudo-remainder sequence."""
    a, b = _primitive(f), _primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = pseudo_divmod(a, b)[1]
        a, b = b, (_primitive(r) if r else [])
    content = math.gcd(math.gcd(*f), math.gcd(*g))
    h = [c * content for c in a]
    return h, _exact_quotient(f, h), _exact_quotient(g, h)


def gcd(f: Sequence[int], g: Sequence[int]) -> Tuple[Int, Int, Int]:
    """(h, f/h, g/h) with h a gcd over Z of the nonzero f and g, determined
    up to its sign."""
    if len(f) == 1 or len(g) == 1:
        c = math.gcd(math.gcd(*f), math.gcd(*g))
        return [c], [x // c for x in f], [x // c for x in g]
    return heu_gcd(f, g) or prs_gcd(f, g)


# ---------------------------------------------------------------------------
# Arithmetic over F_p (coefficients in [0, p))
# ---------------------------------------------------------------------------


def _gf(f: Sequence[int], p: int) -> Int:
    """f with its coefficients reduced into [0, p)."""
    return _trim([c % p for c in f])


def _gf_divmod(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[Int, Int]:
    db = len(b) - 1
    if len(a) <= db:
        return [], list(a)
    inv = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % p
        if c:
            q[k] = c
            for i in range(db + 1):
                r[k + i] = (r[k + i] - c * b[i]) % p
    return q, _trim(r[:db])


def _gf_mulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], p: int) -> Int:
    return _gf_divmod(_gf(_mul(a, b), p), m, p)[1]


def _gf_powmod(a: Sequence[int], e: int, m: Sequence[int], p: int) -> Int:
    result, a = [1], _gf_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _gf_mulmod(result, a, m, p)
        e >>= 1
        if e:
            a = _gf_mulmod(a, a, m, p)
    return result


def _gf_monic(a: Sequence[int], p: int) -> Int:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_sub(a: Sequence[int], b: Sequence[int], p: int) -> Int:
    return _gf(_sub(a, b), p)


def _gf_gcd(a: Sequence[int], b: Sequence[int], p: int) -> Int:
    """The monic gcd over F_p (empty when both are zero)."""
    while b:
        a, b = b, _gf_divmod(a, b, p)[1]
    return _gf_monic(a, p) if a else []


def _gf_xgcd(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[Int, Int, Int]:
    """(g, s, t) with s*a + t*b = g, the monic gcd over F_p."""
    r0, r1, s0, s1, t0, t1 = list(a), list(b), [1], [], [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _gf_sub(s0, _mul(q, s1), p)
        t0, t1 = t1, _gf_sub(t0, _mul(q, t1), p)
    inv = pow(r0[-1], -1, p)
    return ([c * inv % p for c in r0], [c * inv % p for c in s0],
            [c * inv % p for c in t0])


def _distinct_degree(f: Sequence[int], p: int) -> List[Tuple[Int, int]]:
    """[(g, d)]: g the product of the irreducible factors of degree d of
    the monic squarefree f over F_p."""
    out, x, h, d = [], [0, 1], [0, 1], 0
    f = list(f)
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _gf_powmod(h, p, f, p)
        g = _gf_gcd(_gf_sub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _gf_divmod(f, g, p)[0]
            h = _gf_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g: Int, d: int, p: int, rng: random.Random) -> List[Int]:
    """The monic irreducible factors, all of degree d, of the monic
    squarefree g over F_p for an odd p (Cantor and Zassenhaus)."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        h = _gf_gcd(_gf_sub(_gf_powmod(a, e, g, p), [1], p), g, p)
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_gf_divmod(g, h, p)[0], d, p, rng))


# ---------------------------------------------------------------------------
# Factorization
# ---------------------------------------------------------------------------


def _odd_primes():
    yield 3
    p = 5
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _hensel_step(m: int, f, g, h, s, t):
    """From f = g*h and s*g + t*h = 1 modulo m, with h monic, the same
    modulo m^2 (Algorithm 15.10 of von zur Gathen and Gerhard)."""
    mm = m * m
    e = _symmetric(_sub(f, _mul(g, h)), mm)
    q, r, _ = pseudo_divmod(_mul(s, e), h)
    g = _symmetric(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h = _symmetric(_add(h, r), mm)
    b = _symmetric(_sub(_add(_mul(s, g), _mul(t, h)), [1]), mm)
    c, d, _ = pseudo_divmod(_mul(s, b), h)
    s = _symmetric(_sub(s, d), mm)
    t = _symmetric(_sub(t, _add(_mul(t, b), _mul(c, g))), mm)
    return g, h, s, t


def _hensel_lift(f: Int, modular: List[Int], p: int, k: int) -> List[Int]:
    """The monic factors modulo p^(2^k) that the pairwise coprime monic
    `modular` lift to, f being lc(f) times their product modulo p."""
    if len(modular) == 1:
        m = p ** (2 ** k)
        inv = pow(f[-1], -1, m)
        return [_symmetric([c * inv for c in f], m)]
    half = len(modular) // 2
    g = [f[-1] % p]
    for u in modular[:half]:
        g = _gf(_mul(g, u), p)
    h = [1]
    for u in modular[half:]:
        h = _gf(_mul(h, u), p)
    _, s, t = _gf_xgcd(g, h, p)
    m = p
    for _ in range(k):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return (_hensel_lift(g, modular[:half], p, k)
            + _hensel_lift(h, modular[half:], p, k))


def _modular_factors(f: Int) -> Tuple[int, List[Tuple[Int, int]], int]:
    """(p, distinct-degree split of f mod p, number of factors mod p) for
    the prime with the fewest factors among the first few that divide
    neither lc(f) nor the discriminant."""
    best, tried = None, 0
    for p in _odd_primes():
        if f[-1] % p == 0:
            continue
        fp = _gf_monic(_gf(f, p), p)
        if len(_gf_gcd(fp, _gf(_derivative(fp), p), p)) > 1:
            continue
        split = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for g, d in split)
        if best is None or count < best[2]:
            best = (p, split, count)
        tried += 1
        if count == 1 or tried == _PRIME_TRIES:
            return best


def _zassenhaus(f: Int) -> List[Int]:
    """The irreducible factors over Z of the primitive squarefree f with
    f(0) != 0 and a positive leading coefficient."""
    n = len(f) - 1
    if n == 1:
        return [f]
    p, split, count = _modular_factors(f)
    if count == 1:
        return [f]
    if count > MAX_MODULAR_FACTORS:
        raise PrecintError(
            f"factoring a polynomial of degree {n} over Q needs {count} "
            f"modular factors, more than the limit of {MAX_MODULAR_FACTORS} "
            f"that subset recombination is allowed")
    rng = random.Random(p)
    modular = [u for g, d in split for u in _equal_degree(g, d, p, rng)]
    # lc(f) * (any factor of f made monic) has coefficients below the
    # Mignotte bound; lift until p^(2^k) exceeds twice that
    lc = f[-1]
    bound = (math.isqrt(n + 1) + 1) * 2 ** n * max(map(abs, f)) * lc
    k = 0
    while p ** (2 ** k) <= 2 * bound:
        k += 1
    m = p ** (2 ** k)
    lifted = _hensel_lift(f, modular, p, k)
    found, left, size = [], list(range(len(lifted))), 1
    while 2 * size <= len(left):
        for subset in itertools.combinations(left, size):
            # the constant term of a true factor times lc(f)/its own lc
            # divides lc(f) * f(0)
            c = lc
            for i in subset:
                c = c * lifted[i][0] % m
            if c > m // 2:
                c -= m
            if not c or lc * f[0] % c:
                continue
            g = [lc]
            for i in subset:
                g = _symmetric(_mul(g, lifted[i]), m)
            g = _primitive(g)
            quotient = _exact_quotient(f, g)
            if quotient is None:
                continue
            found.append(g)
            f, lc = quotient, quotient[-1]
            left = [i for i in left if i not in subset]
            break
        else:
            size += 1
    return found + [f]


def _squarefree(f: Int) -> List[Tuple[Int, int]]:
    """[(a, i)] with f = +-prod a^i, the a primitive, squarefree, pairwise
    coprime and nonconstant (Yun's algorithm)."""
    out = []
    _, b, c = gcd(f, _derivative(f))
    i = 1
    while len(b) > 1:
        d = _sub(c, _derivative(b))
        a, b, c = gcd(b, d) if d else (b, [1], [])
        if len(a) > 1:
            out.append((_primitive(a), i))
        i += 1
    return out


def eisenstein(f: Sequence[int]) -> bool:
    """Whether Eisenstein's criterion at a prime below 100 proves f
    irreducible over Q: the prime divides every coefficient but the leading
    one, and its square does not divide the constant one.  It costs no
    factoring, for a polynomial too large to factor."""
    *lower, lead = f
    g = math.gcd(*lower)
    for q in range(2, 100 if g else 0):
        if g % q == 0:
            if lead % q and lower[0] % (q * q):
                return True
            while g % q == 0:
                g //= q
    return False


def factor(f: Sequence[int]) -> List[Tuple[Int, int]]:
    """[(g, multiplicity)]: the irreducible factors over Z of a nonconstant
    f, each primitive with a positive leading coefficient, unordered.
    Raises PrecintError when recombination would need more than
    MAX_MODULAR_FACTORS modular factors."""
    f = _primitive(f)
    out = []
    k = 0
    while not f[k]:
        k += 1
    if k:
        out.append(([0, 1], k))
        f = f[k:]
    if len(f) > 1:
        for a, i in _squarefree(f):
            out.extend((g, i) for g in _zassenhaus(a))
    return out
