"""Timeliness metrics of a slotted-time energy-harvesting actuator.

A single-packet cache holds the freshest unactuated data packet and a
single-packet battery holds one energy packet; the actuator fires whenever
both resources are available in a slot.  The package computes the average
age of information (aoi), age of actuation (aoa), and age of actuated
information (aoai) by four independent routes -- Monte Carlo simulation,
closed formulas, truncated Markov-chain numerics, and the level series of
the actuation age -- and cross-validates them against each other.
"""

from .analytic import (AoaiSeedProbs, AoaSeedProbs, MetricAverages,
                       aoa_seed_probs, aoai_seed_probs, averages, avg_aoa,
                       avg_aoai, avg_aoi)
from .chains import (StationaryDist, TruncatedChain, aoa_series_mean,
                     build_aoa_chain, build_aoai_chain, choose_cap, mean_age,
                     stationary)
from .core import (AgeVector, Params, Shorthand, SlotEvents, SystemState,
                   make_params, shorthand)
from .engine import (EngineState, RunSummary, initial_state, read_events_csv,
                     run, run_batched, run_trace, step)
from .errors import (AoaLabError, CapError, ConvergenceError, DomainError,
                     NumericalError, TruncationError)
from .validation import CrossCheckResult, SweepReport, cross_check, sweep

__version__ = "0.1.0"

__all__ = [
    "AgeVector", "AoaLabError", "AoaSeedProbs", "AoaiSeedProbs", "CapError",
    "ConvergenceError", "CrossCheckResult", "DomainError", "EngineState",
    "MetricAverages", "NumericalError", "Params", "RunSummary", "Shorthand",
    "SlotEvents", "StationaryDist", "SweepReport", "SystemState",
    "TruncatedChain", "TruncationError", "aoa_seed_probs", "aoa_series_mean",
    "aoai_seed_probs", "averages", "avg_aoa", "avg_aoai", "avg_aoi",
    "build_aoa_chain", "build_aoai_chain", "choose_cap", "cross_check",
    "initial_state", "make_params", "mean_age", "read_events_csv", "run",
    "run_batched", "run_trace", "shorthand", "stationary", "step", "sweep",
]
