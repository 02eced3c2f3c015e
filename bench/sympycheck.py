"""Independent check of `precint global-basis` output, built on sympy alone.

Nothing here imports precint.  The operator and the basis are read back from
their text form with sympy, and every value lives in K(q) for the number
field K = Q[t]/(m) of the orbit: an element is a dense polynomial in t of
degree < deg m whose coefficients lie in sympy's fraction field Q(q).  Since
1, t, ..., t^(d-1) are linearly independent over Q, the q-order of such an
element is the least q-order of its coefficients.

For every point rho + n of every orbit the check unrolls the identity-window
solutions b_1..b_r anchored at the leftmost root of the extreme coefficients
and asks two things of the basis B_1..B_r:

* every (B_i . b_j)(rho + n + q) has q-order >= 0 (the basis is integral);
* the r x r determinant of these values has q-order exactly 0 (it is maximal).

It also derives the expected worklist (left edge to right edge or bound) from
the operator's factors and compares it with the reported `verified_points`.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

import sympy
from sympy import QQ
from sympy.polys.densebasic import dup_strip
from sympy.polys.euclidtools import dup_invert

X = sympy.Symbol("x")
_S = sympy.Symbol("S")
_Q = sympy.Symbol("q")
FQ = QQ.frac_field(_Q)
F = FQ.field
R = F.ring
_Q_RING = R.gens[0]

# --------------------------------------------------------------------------
# Reading operators, polynomials and points back from text
# --------------------------------------------------------------------------


def _expr(text: str):
    return sympy.sympify(text.replace("^", "**"), locals={"x": X, "S": _S})


def parse_poly(text: str) -> List:
    """Dense QQ coefficients (highest degree first) of a polynomial in x."""
    return sympy.Poly(_expr(text), X, domain=QQ).all_coeffs()


def parse_operator(text: str) -> List[List]:
    """Coefficients l_0..l_r of an operator written as sum l_i*S^i."""
    by_power = sympy.Poly(_expr(text), _S).all_coeffs()[::-1]
    return [sympy.Poly(c, X, domain=QQ).all_coeffs() for c in by_power]


def _shift_poly(coeffs: Sequence, k: int) -> Tuple:
    """Coefficients of p(x - k)."""
    return tuple(sympy.Poly(list(coeffs), X, domain=QQ).shift(-k).all_coeffs())


_POINT = re.compile(r"^root\((?P<poly>.*)\)(?P<off>[+-]\d+)?$")


def point_min_poly(text: str) -> Tuple:
    """Monic minimal polynomial over Q of a point printed as `n` or
    `root(p)+k`; the conjugates of a point share it."""
    m = _POINT.match(text.strip())
    if m is None:
        return (sympy.Integer(1), -sympy.Rational(text))
    off = int(m.group("off") or 0)
    return _shift_poly(_monic(parse_poly(m.group("poly"))), off)


def _monic(coeffs: Sequence) -> List:
    lead = coeffs[0]
    return [c / lead for c in coeffs]


# --------------------------------------------------------------------------
# Orbits and the expected worklist
# --------------------------------------------------------------------------


def _irreducible_factors(coeffs: Sequence) -> List[List]:
    _, facs = sympy.Poly(list(coeffs), X, domain=QQ).factor_list()
    return [_monic(f.all_coeffs()) for f, _ in facs if f.degree() > 0]


def _offset_in_orbit(fac: Sequence, rep: Sequence) -> Optional[int]:
    """The integer k with fac(x) = rep(x - k), or None."""
    if len(fac) != len(rep):
        return None
    d = len(rep) - 1
    k = (rep[1] - fac[1]) / d
    if k != int(k):
        return None
    k = int(k)
    return k if _shift_poly(rep, k) == tuple(fac) else None


class Orbit:
    """rho + Z for rho a root of `rep`, with the root offsets of the extreme
    coefficients of an operator of order r."""

    def __init__(self, rep: Sequence, key: str, r: int):
        self.rep = list(rep)
        self.key = key
        self.r = r
        self.left: List[int] = []   # roots of l_0
        self.lead: List[int] = []   # roots of l_r

    @property
    def anchor(self) -> int:
        return min(self.left + self.lead)

    @property
    def right_edge(self) -> int:
        return max(self.left + [n + self.r for n in self.lead])


def orbits_of(ell: Sequence[Sequence], bounds: Dict[str, int]) -> List[Orbit]:
    """Orbits singled out by l_0 and l_r.  An integer root lands on the orbit
    `Z`; an algebraic one on the orbit whose bound key is a shift of its
    factor (every algebraic orbit needs a bound key here)."""
    r = len(ell) - 1
    integers = [sympy.Integer(1), sympy.Integer(0)]
    reps = {key: (integers if key == "Z" else _monic(parse_poly(key)))
            for key in bounds}
    reps.setdefault("Z", integers)
    found: Dict[str, Orbit] = {}
    for coeffs, side in ((ell[0], "left"), (ell[r], "lead")):
        for fac in _irreducible_factors(coeffs):
            for key, rep in reps.items():
                k = _offset_in_orbit(fac, rep)
                if k is not None:
                    break
            else:
                raise ValueError(f"no bound key names the orbit of {fac}")
            orbit = found.setdefault(key, Orbit(rep, key, r))
            getattr(orbit, side).append(k)
    return list(found.values())


# --------------------------------------------------------------------------
# Arithmetic in K(q), K = Q[t]/(m)
# --------------------------------------------------------------------------


class OrbitField:
    """K(q) for K = Q[t]/(m).  Elements are lists of d = deg m entries of
    Q(q), lowest power of t first; for d = 1 this is Q(q) itself."""

    def __init__(self, rep: Sequence):
        self.d = len(rep) - 1
        # t^d = -(m_0 + m_1*t + ... + m_(d-1)*t^(d-1)), rep is monic
        self.tail = [-QQ.convert(c) for c in reversed(rep[1:])]
        self.zero = [F.zero] * self.d
        self.one = [F.one] + [F.zero] * (self.d - 1)
        self._m_dense = [FQ.convert(c) for c in rep]

    def _reduce(self, coeffs: List) -> List:
        """Fold powers t^k, k >= d, back into 1..t^(d-1)."""
        d = self.d
        for k in range(len(coeffs) - 1, d - 1, -1):
            c = coeffs[k]
            if c:
                for i, m in enumerate(self.tail):
                    coeffs[k - d + i] = coeffs[k - d + i] + c * m
        return coeffs[:d]

    def add(self, a: List, b: List) -> List:
        return [x + y for x, y in zip(a, b)]

    def sub(self, a: List, b: List) -> List:
        return [x - y for x, y in zip(a, b)]

    def mul(self, a: List, b: List) -> List:
        if self.d == 1:
            return [a[0] * b[0]]
        prod = [F.zero] * (2 * self.d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = prod[i + j] + x * y
        return self._reduce(prod)

    def inv(self, a: List) -> List:
        if self.d == 1:
            return [1 / a[0]]
        dense = dup_strip(a[::-1])
        out = dup_invert(dense, self._m_dense, FQ)[::-1]
        return out + [F.zero] * (self.d - len(out))

    def eval_shifted(self, coeffs: Sequence, w: int) -> List:
        """p(t + w + q) for a polynomial p over Q, by Horner's rule in
        Q[q][t] and one conversion to Q(q) per coefficient."""
        c = _Q_RING + w
        acc = [R.zero] * self.d
        for coeff in coeffs:
            # acc <- acc * (t + c) + coeff
            shifted = [R.zero] + acc
            for i in range(self.d):
                shifted[i] = shifted[i] + acc[i] * c
            shifted[0] = shifted[0] + QQ.convert(coeff)
            acc = self._reduce(shifted)
        return [F.new(x) for x in acc]


def q_order(a: List):
    """q-adic order of an element of K(q); None stands for zero."""
    best = None
    for c in a:
        if not c:
            continue
        v = (min(mon[0] for mon in c.numer.monoms())
             - min(mon[0] for mon in c.denom.monoms()))
        if best is None or v < best:
            best = v
    return best


def _unroll(K: OrbitField, ell: Sequence[Sequence], anchor: int,
            hi: int) -> List[Dict[int, List]]:
    """The identity-window solutions b_1..b_r at positions anchor..hi."""
    r = len(ell) - 1
    memo: Dict[Tuple[int, int], List] = {}

    def lev(i: int, w: int) -> List:
        if (i, w) not in memo:
            memo[(i, w)] = K.eval_shifted(ell[i], w)
        return memo[(i, w)]

    table = []
    for j in range(r):
        vals = {anchor + i: (K.one if i == j else K.zero) for i in range(r)}
        for p in range(anchor + r, hi + 1):
            w = p - r
            acc = K.zero
            for i in range(r):
                acc = K.add(acc, K.mul(lev(i, w), vals[w + i]))
            vals[p] = K.mul(acc, K.inv(K.sub(K.zero, lev(r, w))))
        table.append(vals)
    return table


def _det(K: OrbitField, matrix: List[List[List]]) -> List:
    n = len(matrix)
    total = K.zero
    for perm in itertools.permutations(range(n)):
        term = K.one
        for i, j in enumerate(perm):
            term = K.mul(term, matrix[i][j])
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        total = (K.sub if inversions % 2 else K.add)(total, term)
    return total


# --------------------------------------------------------------------------
# The check
# --------------------------------------------------------------------------


def _worklists(operator: str, bounds: Dict[str, int]):
    """Per orbit: its field, the unrolled solutions and the expected point
    offsets, from the left edge up to the right edge, or up to the bound
    when some solution has nonzero valuation growth."""
    ell = parse_operator(operator)
    r = len(ell) - 1
    out = []
    for orbit in orbits_of(ell, bounds):
        K = OrbitField(orbit.rep)
        edge = orbit.right_edge
        bound = bounds.get(orbit.key)
        top = max(edge + 1, bound if bound is not None else edge)
        table = _unroll(K, ell, orbit.anchor, top + r - 1)
        growth = [min(v for v in (q_order(table[j][n])
                                  for n in range(edge + 1, edge + r + 1))
                      if v is not None) for j in range(r)]
        if any(growth):
            if bound is None:
                raise ValueError(f"orbit {orbit.key} needs a right bound")
            hi = bound
        else:
            hi = edge if bound is None else min(edge, bound)
        out.append((orbit, K, table, range(orbit.anchor, hi + 1)))
    return r, out


def _point_polys(orbits) -> List[Tuple]:
    return [_shift_poly(orbit.rep, n) for orbit, _, _, points in orbits
            for n in points]


def expected_points(operator: str, bounds: Dict[str, int]) -> List[Tuple]:
    """Minimal polynomials of the points the worklist should cover."""
    return _point_polys(_worklists(operator, bounds)[1])


def check_global_basis(operator: str, bounds: Dict[str, int],
                       output: dict) -> List[str]:
    """Problems found in one `global-basis --format json` output; empty when
    the basis is integral and maximal at every expected point and the
    reported points are exactly the expected worklist."""
    r, orbits = _worklists(operator, bounds)
    if output.get("order") != r or len(output.get("basis", ())) != r:
        return [f"expected an order-{r} basis"]
    rows = [[(parse_poly(c["num"]), parse_poly(c["den"])) for c in row]
            for row in output["basis"]]
    problems: List[str] = []
    for orbit, K, table, points in orbits:
        for n in points:
            problems += _check_point(K, rows, table, n, f"{orbit.key}:{n}")
    reported = [point_min_poly(p) for p in output.get("verified_points", ())]
    if Counter(reported) != Counter(_point_polys(orbits)):
        problems.append(f"verified_points {output.get('verified_points')} "
                        f"differ from the expected worklist")
    return problems


def _check_point(K: OrbitField, rows, table, n: int, label: str) -> List[str]:
    r = len(rows)
    coeffs = [[K.mul(K.eval_shifted(num, n), K.inv(K.eval_shifted(den, n)))
               for num, den in row] for row in rows]
    matrix = []
    problems = []
    for i in range(r):
        line = []
        for j in range(r):
            acc = K.zero
            for k in range(r):
                acc = K.add(acc, K.mul(coeffs[i][k], table[j][n + k]))
            v = q_order(acc)
            if v is not None and v < 0:
                problems.append(f"{label}: (B_{i + 1} . b_{j + 1}) has q-order {v}")
            line.append(acc)
        matrix.append(line)
    d = q_order(_det(K, matrix))
    if d != 0:
        problems.append(f"{label}: determinant has q-order {d}, expected 0")
    return problems


def self_check() -> None:
    """The check must reject the standard basis of the cubic
    (x+2)^2 + x*S^2 + (x+2)*S^3 at 0, where val_0(S) = -1."""
    one, zero = {"num": "1", "den": "1"}, {"num": "0", "den": "1"}
    standard = {"order": 3,
                "basis": [[one if i == j else zero for j in range(3)]
                          for i in range(3)],
                "verified_points": ["-2", "-1", "0"]}
    problems = check_global_basis("(x+2)^2 + x*S^2 + (x+2)*S^3", {"Z": 0},
                                  standard)
    if not any(p.startswith("Z:0: (B_2 . b_") for p in problems):
        raise AssertionError(f"self-check: standard basis passed at 0: {problems}")
