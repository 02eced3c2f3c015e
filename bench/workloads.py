"""The benchmark's workloads: which precint commands one round runs.

A round is a list of `Op`s.  `integer-orbits` and `algebraic-orbits` run
the same fixed operators in every round whatever the seed; `certificates`
passes the seed to `verify --seed`; `random-small` draws fresh operators for
every round from the seed and the round number, so no cache can carry one
round's work into the next while every round keeps the same shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

CUBIC = "(x+2)^2 + x*S^2 + (x+2)*S^3"
SPREAD4 = "(x+3)*(x-1) + x*S + S^2 + (x-4)*S^3"
ALG_QUARTIC = "(x^2-2)*(x^2-2*x-1) + x*S + (x^2-2*x-1)*S^2"
SQRT2 = "x^2 - 2 + S^2"
CUBIC_FIELD = "(x^3-2)*(x^3-3*x^2+3*x-3) + x*S + (x^3-3*x^2+3*x-3)*S^2"

CERT_SAMPLES = 200
SMALL_PER_ROUND = 12


@dataclass(frozen=True)
class Op:
    """One precint invocation: `command` is `global-basis` or `verify`."""

    label: str
    command: str
    operator: str
    bounds: Tuple[Tuple[str, int], ...]
    cert_seed: int = 0
    # the worklist the generator implies, for operators made by the benchmark
    points: Tuple[str, ...] = ()

    @property
    def bound_map(self) -> Dict[str, int]:
        return dict(self.bounds)

    def argv(self) -> List[str]:
        out = [self.command, "--operator", self.operator, "--format", "json"]
        for key, value in self.bounds:
            out += ["--right-bound", f"{key}={value}"]
        if self.command == "verify":
            out += ["--samples", str(CERT_SAMPLES), "--seed", str(self.cert_seed)]
        return out


def _basis(label: str, operator: str, key: str, bound: int) -> Op:
    return Op(label, "global-basis", operator, ((key, bound),))


def integer_orbits(seed: int, round_no: int) -> List[Op]:
    return [
        _basis("cubic@Z=0", CUBIC, "Z", 0),
        _basis("spread4@Z=7", SPREAD4, "Z", 7),
        _basis("cubic@Z=4", CUBIC, "Z", 4),
    ]


def algebraic_orbits(seed: int, round_no: int) -> List[Op]:
    return [
        _basis("alg-quartic@3", ALG_QUARTIC, "x^2-2", 3),
        _basis("sqrt2@1", SQRT2, "x^2-2", 1),
        _basis("cubic-field@2", CUBIC_FIELD, "x^3-2", 2),
    ]


def certificates(seed: int, round_no: int) -> List[Op]:
    return [
        Op("verify cubic@Z=0", "verify", CUBIC, (("Z", 0),), seed),
        Op("verify sqrt2@1", "verify", SQRT2, (("x^2-2", 1),), seed),
    ]


def _linear_product(roots: List[int]) -> str:
    return "*".join(f"(x{-a:+d})" if a else "x" for a in roots) or "1"


def small_operator(rng: random.Random, order: int,
                   span: int) -> Tuple[str, int, int]:
    """An operator of the given order whose singular points on Z run from a
    random anchor a in [-12, 12] to a + span.

    The trailing coefficient has the roots a and a + span; the leading one
    has at most one root, strictly between them and far enough left that
    the right edge stays a + span.  Their roots are disjoint, so the
    coefficients stay coprime and normalisation keeps them.  The spread of
    anchors and scales keeps precint's factorisation cache from serving most
    operators.  Returns the operator, a and the right edge a + span.
    """
    a = rng.randint(-12, 12)
    trailing = sorted({a, a + span})
    inner = [b for b in range(a + 1, a + span - order + 1) if b not in trailing]
    leading = [rng.choice(inner)] if inner and rng.random() < 0.5 else []
    scale = rng.choice((1, -1)) * rng.randint(1, 6)
    terms = [f"{scale}*{_linear_product(trailing)}"]
    for i in range(1, order):
        c1, c0 = rng.randint(-2, 2), rng.randint(-2, 2)
        terms.append(f"({c1}*x{c0:+d})*S^{i}")
    terms.append(f"{_linear_product(leading)}*S^{order}")
    return " + ".join(terms), a, a + span


def random_small(seed: int, round_no: int) -> List[Op]:
    """SMALL_PER_ROUND operators, one per (order, span) pair with order 1..3
    and span 0..3, so every round has the same shape."""
    rng = random.Random(f"random-small/{seed}/{round_no}")
    ops = []
    for k in range(SMALL_PER_ROUND):
        order, span = 1 + k % 3, k // 3
        operator, lo, hi = small_operator(rng, order, span)
        ops.append(Op(f"small-r{order}-s{span}", "global-basis", operator,
                      (("Z", hi),), points=tuple(str(n) for n in range(lo, hi + 1))))
    return ops


WORKLOADS = {
    "integer-orbits": integer_orbits,
    "algebraic-orbits": algebraic_orbits,
    "certificates": certificates,
    "random-small": random_small,
}
