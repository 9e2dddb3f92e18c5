"""Shared domain types and parameter algebra.

The system is parameterized by two per-slot Bernoulli probabilities: lambda1
(successful reception of a fresh data packet) and lambda2 (availability of one
harvestable energy packet).  Everything else in the package is a function of
these two numbers plus slot-level event realizations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "RATE_FLOOR",
    "Params",
    "Shorthand",
    "SlotEvents",
    "SystemState",
    "AgeVector",
    "make_params",
    "shorthand",
]


# The smallest supported per-slot rate, for the library and the CLI alike.
# Below it the series misses the exact mean by more than its stated bound
# (by 1.8e-9 at (1e-4, 1e-4)), and the simulator draws every rate below
# 2^-32 as 2^-32.
RATE_FLOOR = 0.01


@dataclass(frozen=True)
class Params:
    """Scenario parameters: per-slot arrival probabilities, each in [RATE_FLOOR, 1].

    A rate outside [0.01, 1], nan among them, raises DomainError naming the
    field, so every route downstream runs on the supported domain only.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        for name in ("lambda1", "lambda2"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)):
                raise DomainError(f"{name} must be a finite real, got {v!r}")
            if not RATE_FLOOR <= v <= 1.0:
                raise DomainError(f"{name} must be in [{RATE_FLOOR}, 1], got {v}")


def make_params(lambda1: float, lambda2: float) -> Params:
    """Validate and build a Params value; raises DomainError outside [RATE_FLOOR, 1]."""
    return Params(float(lambda1), float(lambda2))


@dataclass(frozen=True)
class Shorthand:
    """The four joint per-slot event probabilities.

    w = both arrive, x = data only, y = energy only, z = neither.
    They partition the slot outcomes, so w + x + y + z == 1.
    """

    w: float
    x: float
    y: float
    z: float


def shorthand(p: Params) -> Shorthand:
    """Joint event probabilities for one slot of a Params scenario."""
    l1, l2 = p.lambda1, p.lambda2
    return Shorthand(w=l1 * l2, x=l1 * (1 - l2), y=(1 - l1) * l2,
                     z=(1 - l1) * (1 - l2))


@dataclass(frozen=True)
class SlotEvents:
    """Realized events of a single slot: data received, energy harvestable."""

    data_arrived: bool
    energy_arrived: bool


@dataclass(frozen=True)
class SystemState:
    """End-of-slot occupancy of the one-packet cache and one-packet battery.

    (cache=1, battery=1) is unrepresentable: if both a data packet and an
    energy packet were present they would already have been consumed by an
    actuation within the slot.
    """

    cache: int
    battery: int

    def __post_init__(self):
        if self.cache not in (0, 1) or self.battery not in (0, 1):
            raise DomainError(
                f"cache and battery must be 0 or 1, got ({self.cache}, {self.battery})")
        if self.cache == 1 and self.battery == 1:
            raise DomainError("state (cache=1, battery=1) is not feasible")


@dataclass(frozen=True)
class AgeVector:
    """End-of-slot ages, each at least 1 slot.

    aoi  -- slots since generation of the freshest received data packet;
    aoa  -- slots since the last actuation;
    aoai -- slots since generation of the last actuated data packet.

    aoai upper-bounds both other ages at every slot boundary (a packet is
    received before it is actuated, and an end-of-slot age is at least 1).
    aoi and aoa carry no pointwise order relative to each other.
    """

    aoi: int
    aoa: int
    aoai: int

    def __post_init__(self):
        if min(self.aoi, self.aoa, self.aoai) < 1:
            raise DomainError(f"ages must be >= 1, got {self}")
        if self.aoai < self.aoi or self.aoai < self.aoa:
            raise DomainError(f"aoai must dominate aoi and aoa, got {self}")
