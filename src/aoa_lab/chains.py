"""Markov-chain builders and solvers for the AoA and AoAI processes.

Two chains are covered:

* the actuation-age chain over states (age, cache, battery), truncated at a
  level cap;
* the actuated-information chain over states (aoai, aoi, battery), truncated
  at a level cap.

The builders read their transitions from `engine._TRANSITIONS`, the table of
`_step_core` that the simulator's scan reads, rather than transcribing the
printed matrix patterns; the test suite pins the rows to those patterns and to
`engine.step`.  Truncation keeps levels <= cap and drops transitions to higher
levels, leaving boundary rows substochastic.  States are stored in level
order, and a level rises by at most one per slot (the chains are of GI/M/1
type; Neuts 1981), so the stationary solve sweeps in that order by
Gauss-Seidel (Stewart 1994, ch. 3): each sweep carries every upward flow at
once, and only the resets to lower levels lag by a sweep.  It returns the
renormalized distribution over the retained states; `mean_age` adds an
estimate of the stationary mass lost beyond the cap.  Only the builders and
the solve import scipy, when first called: the other routes never load it
(scipy.sparse alone adds about 20 MB of resident memory).

A semi-analytic route to the average actuation age is provided by
`aoa_series_mean`: seed the level-1 masses from their closed forms and sum
the level recursions of the 3x3 level map exactly, from level 1, as one
matrix-geometric sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .analytic import aoa_seed_probs
from .core import Params, shorthand
from .engine import _TRANSITIONS
from .errors import CapError, ConvergenceError, DomainError, TruncationError

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "TruncatedChain",
    "StationaryDist",
    "build_aoa_chain",
    "build_aoai_chain",
    "stationary",
    "mean_age",
    "aoa_series_mean",
    "choose_cap",
    "level_masses",
]

TAIL_MASS_LIMIT = 1e-6

# Max-norm change between successive Gauss-Seidel sweeps at which
# `stationary` stops, and the sweeps after which it gives up.  Over 15 extreme
# points, both floor chains, (1, 1) and (0.999999, 0.999999) among them, no
# solve took more than 17 sweeps, and none on the 5x5 acceptance grid more
# than 40.  A sweep of the floor AoAI chain, (0.01, 0.5), takes about 0.14 s,
# so 200 sweeps give up there after about 28 s; 10**6 would have run for
# about 39 hours.
STATIONARY_TOL = 1e-13
MAX_SWEEPS = 200

# Largest truncated chain a builder accepts.  The AoAI chain at the rate
# floor, (0.01, 0.5) with cap 2302 at tail_eps 1e-10, has 2 653 055 states;
# there an explicit cap, or tail_eps 5e-324 and its cap of 74 082, would give
# 2.7e9 states, more than memory holds.  The floor chain peaks at about 160
# resident bytes per state in the build and 320 in the solve (Linux, numpy
# 2.4, scipy 1.17, imports included).
MAX_CHAIN_STATES = 3_000_000


@dataclass(frozen=True)
class TruncatedChain:
    """Level-truncated age chain.

    states      -- (n, 3) int array of the states, one per row, grouped by
                   level in increasing order: (age, cache, battery) in the
                   AoA chain, (aoai, aoi, battery) in the AoAI chain.
    matrix      -- canonical CSR matrix (sorted indices, duplicate outcomes
                   summed); rows at the cap boundary are substochastic,
                   interior rows sum to 1.
    level_cap   -- largest retained age level.
    decay_rate  -- per-level geometric decay rate of stationary mass,
                   max(1-lambda1, 1-lambda2).
    """

    states: np.ndarray
    matrix: scipy.sparse.csr_matrix
    level_cap: int
    decay_rate: float


@dataclass(frozen=True)
class StationaryDist:
    """Renormalized quasi-stationary distribution of a truncated chain.

    residual -- max-norm change of `probs` under one renormalized step of
                the chain.
    sweeps   -- Gauss-Seidel sweeps the solve took.
    delta    -- max-norm change over the last sweep.
    """

    probs: np.ndarray
    residual: float
    sweeps: int
    delta: float


def _indptr(counts: np.ndarray) -> np.ndarray:
    # Index pointer of a compressed sparse matrix with counts[k] entries in row k.
    return np.cumsum(np.pad(counts, (1, 0)), dtype=np.int32)


def _truncated_chain(p: Params, cap: int, states, occ, successor) -> TruncatedChain:
    """Chain truncated at cap over `states`, whose state k has occupancy code occ[k].

    For each slot outcome of positive probability, in the order w, x, y, z,
    `_TRANSITIONS` gives every state's next occupancy code and actuation bit,
    and successor(data, occ2, actuated) the next state's index.  Indices past
    the last state, the levels above a cap, are dropped.
    """
    import scipy.sparse as sp

    s = shorthand(p)
    table = np.frombuffer(_TRANSITIONS, dtype=np.uint8)
    n = len(occ)
    # Event code data | energy << 1 of each outcome, as `_TRANSITIONS` indexes it.
    outcomes = [(pr, code) for pr, code in ((s.w, 3), (s.x, 1), (s.y, 2), (s.z, 0)) if pr > 0.0]
    cols = np.empty((n, len(outcomes)), dtype=np.int32)
    for j, (_, code) in enumerate(outcomes):
        entry = table[occ * 4 + code]
        cols[:, j] = successor(code & 1, entry & 3, entry >> 2)
    keep = cols < n
    probs = np.broadcast_to([pr for pr, _ in outcomes], cols.shape)
    m = sp.csr_matrix((probs[keep], cols[keep], _indptr(keep.sum(axis=1))), shape=(n, n))
    m.sum_duplicates()
    return TruncatedChain(np.column_stack(states), m, cap, _decay_rate(p))


def _decay_rate(p: Params) -> float:
    # Slowest-decaying level branches: battery-full states thin at rate
    # 1-lambda1, cached-data states at rate 1-lambda2, the empty state at
    # their product.  At most 1 - RATE_FLOOR = 0.99, so every tail bound's
    # 1 - r is at least 0.01.
    return max(1.0 - p.lambda1, 1.0 - p.lambda2)


def _check_tail_eps(tail_eps: float) -> None:
    if not 0.0 < tail_eps < 1.0:
        raise DomainError(f"tail_eps must be in (0, 1), got {tail_eps}")


def choose_cap(p: Params, tail_eps: float) -> int:
    """Smallest level cap whose geometric tail-mass bound is below tail_eps.

    Uses cap = ceil(log(tail_eps) / log(r)) plus a safety margin of 10, with
    r the per-level decay rate, raised where needed to the smallest cap whose
    a-priori tail mass r**cap / (1 - r) is within the `TAIL_MASS_LIMIT` that
    `mean_age` enforces.  With r at most 0.99 on the supported domain, the
    cap is at most 74 082 levels, at (0.01, 0.01) with tail_eps 5e-324.
    """
    _check_tail_eps(tail_eps)
    r = _decay_rate(p)
    if r == 0.0:
        return 12
    cap = math.ceil(math.log(tail_eps) / math.log(r)) + 10
    cap = max(cap, 2)
    if _a_priori_tail_mass(r, cap) > TAIL_MASS_LIMIT:
        cap = math.ceil(math.log(TAIL_MASS_LIMIT * (1.0 - r)) / math.log(r)) - 1
        while _a_priori_tail_mass(r, cap) > TAIL_MASS_LIMIT:
            cap += 1
    return cap


def _check_size(kind: str, cap: int, n_states: int) -> None:
    if cap < 2:
        raise DomainError(f"cap must be >= 2, got {cap}")
    if n_states > MAX_CHAIN_STATES:
        raise CapError(f"{kind} chain at cap {cap} has {n_states} states, "
                       f"above the limit of {MAX_CHAIN_STATES}")


def _a_priori_tail_mass(r: float, cap: int) -> float:
    return r ** cap / (1.0 - r)


def build_aoa_chain(p: Params, cap: int) -> TruncatedChain:
    """Truncated actuation-age chain over states (age, cache, battery).

    Level 1 holds exactly (1,0,0) and (1,0,1); every level 2..cap holds
    (A,0,0), (A,0,1), (A,1,0).  (A,1,1) is infeasible and (1,1,0) impossible
    because an actuation empties the cache.  (1,c,b) is at index occ = 2c + b
    and (A,c,b) at 3A - 4 + occ.  Raises CapError when the 3*cap - 1 states
    exceed MAX_CHAIN_STATES.
    """
    _check_size("aoa", cap, 3 * cap - 1)
    k = np.arange(3 * cap - 1)
    age, occ = (k + 4) // 3, np.where(k < 2, k, (k + 1) % 3)
    # An actuation restarts the age at 1; level age + 1 starts at 3*age - 1.
    return _truncated_chain(p, cap, (age, occ >> 1, occ & 1), occ,
                            lambda data, occ2, act: np.where(act, occ2, 3 * age - 1 + occ2))


def build_aoai_chain(p: Params, cap: int) -> TruncatedChain:
    """Truncated actuated-information chain over states (aoai, aoi, battery).

    Constraints: aoi <= aoai always, and battery = 1 only when aoai = aoi
    (a charged battery with a cached packet would already have actuated).
    A state with aoi < aoai necessarily holds a cached packet of age aoi;
    cache occupancy is inferred from that.  Level ai starts at index
    (ai-1)(ai+2)/2 and (ai,i,b) is at (ai-1)(ai+2)/2 + i - 1 + b.  Raises
    CapError when the cap*(cap+3)/2 states exceed MAX_CHAIN_STATES.
    """
    _check_size("aoai", cap, cap * (cap + 3) // 2)
    aoai = np.repeat(np.arange(1, cap + 1), np.arange(2, cap + 2))
    offset = np.arange(len(aoai)) - (aoai - 1) * (aoai + 2) // 2
    battery = (offset == aoai).astype(np.int64)
    aoi = offset + 1 - battery
    occ = 2 * (aoi < aoai) + battery

    def successor(data, occ2, act):
        aoi2 = 1 if data else aoi + 1
        aoai2 = np.where(act, aoi2, aoai + 1)
        return (aoai2 - 1) * (aoai2 + 2) // 2 + aoi2 - 1 + (occ2 & 1)

    return _truncated_chain(p, cap, (aoai, aoi, battery), occ, successor)


def _splu():
    """`scipy.sparse.linalg.splu`, imported on first use.

    Importing `scipy.sparse.linalg` takes tens of milliseconds, which every
    CLI command would pay at start-up if this module imported it.  Like the
    `scipy.sparse` of `_truncated_chain` and `stationary`, it loads only on the
    chain route.
    """
    from scipy.sparse.linalg import splu

    return splu


def stationary(chain: TruncatedChain) -> StationaryDist:
    """Solve pi P = pi, sum(pi) = 1.

    The chain is solved by Gauss-Seidel sweeps in state order from the
    uniform vector.  P^T is split into F, the flows to later states and
    the self-loops, and R, the flows back to earlier states; a sweep solves
    (I - F) v' = R v and renormalizes v'.  I - F is lower triangular and
    factored once, so each sweep is one triangular solve.  A self-loop of
    probability 1, as at the level-1 states at (1, 1), would zero a diagonal
    entry of I - F, so such a loop goes to R instead.  Lagging every
    self-loop would also keep I - F nonsingular, but a state that keeps mass
    w per slot then converges at rate w: at (0.9, 0.9), w = 0.81, the AoAI
    chain takes 137 sweeps that way and 13 this way.  The solve has
    converged when successive iterates differ by less than
    `STATIONARY_TOL` in max norm; the result is the renormalized distribution
    over retained states.  A solve that has not converged after `MAX_SWEEPS`
    sweeps raises `ConvergenceError`.
    """
    import scipy.sparse as sp

    # P's CSR arrays, read by column, are P^T in CSC.  R and F keep the entries
    # a mask selects; column j of each starts at the mask's count before m.indptr[j].
    m = chain.matrix
    n = m.shape[0]
    src = np.repeat(np.arange(n, dtype=np.int32), np.diff(m.indptr))
    ahead = (m.indices > src) | ((m.indices == src) & (m.data < 1.0))
    r, f = (sp.csc_matrix((m.data[k], m.indices[k], _indptr(k)[m.indptr]), shape=(n, n))
            for k in (~ahead, ahead))
    i_minus_f = sp.identity(n, format="csc") - f
    del src, ahead, f  # else held through the factor: 120 MiB at the rate floor
    # With the natural order and diagonal pivots the factor of I - F is I - F
    # itself, with no fill.  SuperLU's default panel of 10 columns makes it
    # touch dense n-row workspaces: at the rate floor that took the factor
    # from 0.4 to 1.0 s and the peak resident set up by 0.5 GB.
    lu = _splu()(i_minus_f, permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1)

    v = np.full(n, 1.0 / n)
    for sweeps in range(1, MAX_SWEEPS + 1):
        w = lu.solve(r @ v)
        total = w.sum()
        if total <= 0.0:
            raise ConvergenceError("Gauss-Seidel lost all mass")
        w /= total
        delta = float(np.abs(w - v).max())
        v = w
        if delta < STATIONARY_TOL:
            break
    else:
        raise ConvergenceError(
            f"Gauss-Seidel did not reach tol={STATIONARY_TOL} within {MAX_SWEEPS} sweeps")
    # One renormalized step of the chain itself: P^T v = R v + F v.
    w = r @ v + (v - i_minus_f @ v)
    w /= w.sum()
    residual = float(np.abs(w - v).max())
    return StationaryDist(v, residual, sweeps, delta)


def level_masses(dist: StationaryDist, chain: TruncatedChain) -> np.ndarray:
    """Stationary mass per age level, index 0 unused so masses[level] reads naturally."""
    return np.bincount(chain.states[:, 0], weights=dist.probs, minlength=chain.level_cap + 1)


def mean_age(dist: StationaryDist, chain: TruncatedChain) -> tuple[float, float]:
    """Mean age under the solved distribution plus a numerical-error estimate.

    The estimate combines the geometric continuation of the cap-level mass
    (levels above the cap would contribute ~ m_cap * r**k at level cap+k),
    the renormalization shift from the estimated missing tail mass, the
    solver residual propagated across levels, and a floating-point
    accumulation floor.  Raises TruncationError when the estimated tail mass
    exceeds 1e-6.

    The mean is numpy's pairwise sum of level times level mass, not a float
    `@`: numpy hands `@` to the BLAS dot product, which splits a vector
    longer than its threading threshold (10 000 entries in OpenBLAS) across
    the BLAS threads.  The last bits of such a mean then depend on the host's
    CPU count, and in a `validate` pool each worker's spare BLAS thread
    busy-waits on the CPU the other worker needs.
    """
    masses = level_masses(dist, chain)
    m_cap = float(masses[chain.level_cap])
    mean = float((np.arange(chain.level_cap + 1) * masses).sum())
    r = chain.decay_rate
    est_tail = m_cap * r / (1.0 - r)
    bound = m_cap * (chain.level_cap * r / (1.0 - r) + r / (1.0 - r) ** 2)
    bound += mean * est_tail
    eps = np.finfo(float).eps
    bound += dist.residual * chain.level_cap + 8.0 * eps * chain.level_cap * mean
    tail_mass = max(_a_priori_tail_mass(r, chain.level_cap), est_tail)
    if tail_mass > TAIL_MASS_LIMIT:
        raise TruncationError(
            f"estimated tail mass {tail_mass:.3g} exceeds {TAIL_MASS_LIMIT}; raise the cap")
    return mean, float(bound)


def aoa_series_mean(p: Params) -> float:
    """Average actuation age via the level recursions, seeded from closed forms.

    Level components v_A = (v_{A,0,0}, v_{A,0,1}, v_{A,1,0}) evolve as
    v_{A+1} = v_A M with

        v_{A+1,0,0} = z * v_{A,0,0}
        v_{A+1,0,1} = y * v_{A,0,0} + (1-lambda1) * v_{A,0,1}
        v_{A+1,1,0} = x * v_{A,0,0} + (1-lambda2) * v_{A,1,0}

    from v_1 = (v100, v101, 0).  The mean, the sum over A >= 1 of A v_A 1,
    is the matrix-geometric sum v_1 (I - M)^-2 1 (Neuts 1981), taken whole:
    I - M is upper triangular with diagonal (1 - z, lambda1, lambda2),
    invertible for valid Params, so two back-substitutions give
    u = (I - M)^-1 1 and w = (I - M)^-1 u, and the mean is v_1 w.  Every
    literal is an integer, so on `Fraction` rates the sum is exact.  On the
    supported domain 1 - z = lambda1 + lambda2 - lambda1 lambda2 is at least
    0.0199, so no back-substitution divides by 0.
    """
    s = shorthand(p)
    l1, l2, head = p.lambda1, p.lambda2, 1 - s.z
    seeds = aoa_seed_probs(p)
    u1, u2 = 1 / l1, 1 / l2
    u0 = (1 + s.y * u1 + s.x * u2) / head
    w1, w2 = u1 / l1, u2 / l2
    w0 = (u0 + s.y * w1 + s.x * w2) / head
    return seeds.v100 * w0 + seeds.v101 * w1
