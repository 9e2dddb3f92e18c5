"""Closed-form evaluators for the three average ages.

The average AoI is 1/lambda1.  The average AoA and average AoAI are rational
functions of (lambda1, lambda2): quartic over quartic and quintic over
quintic respectively, each written once, in a form grouped by powers of
lambda1 and evaluated by Horner's rule.  Every literal is an integer, so the
evaluators, and the level-1 masses below, also run exactly on `Fraction`
inputs; the test suite checks them that way, with `==`, against means derived
from `engine._TRANSITIONS`, the table of the slot rules in `_step_core`.

Both rational functions are continuous on (0, 1]^2 except that they reduce
to 0/0 at the exact double corner (lambda1, lambda2) = (1, 1); the corner
value is the limit 1 (every slot actuates a fresh packet) and is returned
directly there.

Supported parameter floor: lambda >= 0.01.  The denominators there are of
order 1e-10, far above double-precision underflow; NumericalError is raised
defensively if a denominator ever evaluates to exactly zero away from the
handled corner.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Params
from .errors import NumericalError

__all__ = [
    "MetricAverages",
    "AoaSeedProbs",
    "AoaiSeedProbs",
    "avg_aoi",
    "avg_aoa",
    "avg_aoai",
    "averages",
    "aoa_seed_probs",
    "aoai_seed_probs",
]


@dataclass(frozen=True)
class MetricAverages:
    """Stationary averages of the three ages, each >= 1.

    aoai_bar >= max(aoi_bar, aoa_bar) always.  aoi_bar <= aoa_bar holds over
    most of the parameter square but fails where data is scarce and energy
    plentiful (for example lambda1=0.1, lambda2=0.3 gives aoa_bar ~ 9.82
    against aoi_bar = 10); it is therefore not enforced here.
    """

    aoi_bar: float
    aoa_bar: float
    aoai_bar: float


@dataclass(frozen=True)
class AoaSeedProbs:
    """Stationary mass of the two age-1 states of the actuation-age chain.

    v100 is the mass of (age=1, cache empty, battery empty), v101 of
    (age=1, cache empty, battery full).  Their sum is the per-slot actuation
    probability.
    """

    v100: float
    v101: float


@dataclass(frozen=True)
class AoaiSeedProbs:
    """Stationary mass of the two age-1 states of the actuated-information chain.

    v110 is the mass of (aoai=1, aoi=1, battery empty), v111 of
    (aoai=1, aoi=1, battery full).
    """

    v110: float
    v111: float


def avg_aoi(p: Params) -> float:
    """Average age of information: 1 / lambda1."""
    return 1 / p.lambda1


def _aoa_factored(l1: float, l2: float) -> tuple[float, float]:
    m = l2 - 1
    num = ((((m * m * m) * l1
             + (-2 * l2 * m * m)) * l1
            + (-(l2 * l2) * (2 * l2 * l2 - 3 * l2 + 1))) * l1
           + (l2 * l2 * l2 * (3 * l2 - 2))) * l1 - l2 ** 4
    quad = (m * m * l1 + (l2 - 2 * l2 * l2)) * l1 + l2 * l2
    den = l1 * l2 * (l1 * m - l2) * quad
    return num, den


def _aoai_factored(l1: float, l2: float) -> tuple[float, float]:
    m = l2 - 1
    m3 = m * m * m
    num = (((((m3 * (2 * l2 - 1)) * l1
              + ((l2 - 4) * m3 * l2)) * l1
             + (-4 * m3 * l2 * l2)) * l1
            + (2 * l2 ** 3 * (3 * l2 * l2 - 5 * l2 + 2))) * l1
           + (l2 ** 4 * (3 - 4 * l2))) * l1 + l2 ** 5
    quad = (m * m * l1 + (l2 - 2 * l2 * l2)) * l1 + l2 * l2
    reach = l1 + l2 - l1 * l2
    den = l1 * l2 * reach * reach * quad
    return num, den


def _ratio(num: float, den: float, what: str) -> float:
    if den == 0.0:
        raise NumericalError(f"{what}: denominator underflowed to zero")
    return num / den


def avg_aoa(p: Params) -> float:
    """Average age of actuation.

    Evaluates the closed-form rational function of (lambda1, lambda2).
    At the double corner (1, 1) the rational form is 0/0 and the limit
    value 1 is returned.
    """
    l1, l2 = p.lambda1, p.lambda2
    if l1 == 1.0 and l2 == 1.0:
        return 1.0
    return _ratio(*_aoa_factored(l1, l2), "avg_aoa")


def avg_aoai(p: Params) -> float:
    """Average age of actuated information.

    Evaluates the closed-form rational function of (lambda1, lambda2); the
    double corner (1, 1) returns the limit value 1.
    """
    l1, l2 = p.lambda1, p.lambda2
    if l1 == 1.0 and l2 == 1.0:
        return 1.0
    return _ratio(*_aoai_factored(l1, l2), "avg_aoai")


def averages(p: Params) -> MetricAverages:
    """All three closed-form averages for one scenario."""
    return MetricAverages(avg_aoi(p), avg_aoa(p), avg_aoai(p))


def aoa_seed_probs(p: Params) -> AoaSeedProbs:
    """Closed-form stationary mass of the actuation-age chain's level-1 states.

    At lambda2 = 1 the formulas evaluate to v100 = 0 and v101 = lambda1 by
    direct substitution (every harvested slot actuates, so age-1 mass sits in
    the battery-full state); the double corner (1, 1) is 0/0 and returns the
    limit (1, 0).
    """
    l1, l2 = p.lambda1, p.lambda2
    if l1 == 1.0 and l2 == 1.0:
        return AoaSeedProbs(1.0, 0.0)
    q1, q2 = 1 - l1, 1 - l2
    den = q1 * l2 ** 3 + l1 * l2 * q2 + q1 * q2 * l2 * l2 + l1 * l1 * q2 * q2
    if den == 0.0:
        raise NumericalError("aoa_seed_probs: denominator underflowed to zero")
    v100 = l1 * (1 - q1 * q2) * q2 * l2 / den
    v101 = l1 * q1 * l2 ** 3 / den
    return AoaSeedProbs(v100, v101)


def aoai_seed_probs(p: Params) -> AoaiSeedProbs:
    """Closed-form stationary mass of the actuated-information chain's level-1 states.

    The double corner (1, 1) is 0/0 in the printed form and returns the
    limit (1, 0).
    """
    l1, l2 = p.lambda1, p.lambda2
    if l1 == 1.0 and l2 == 1.0:
        return AoaiSeedProbs(1.0, 0.0)
    q1, q2 = 1 - l1, 1 - l2
    den = l1 * l1 * q2 * q2 + l2 * l2 + l1 * l2 * (1 - 2 * l2)
    if den == 0.0:
        raise NumericalError("aoai_seed_probs: denominator underflowed to zero")
    v110 = l1 * (l1 * l1 * q2 + l2) * q2 * l2 / den
    v111 = q1 * l1 * l2 ** 3 / den
    return AoaiSeedProbs(v110, v111)
