"""Markov-chain builders and solvers for the three age processes.

Three chains are covered:

* the exact 3-state occupancy chain over [(0,0), (0,1), (1,0)] of
  (cache, battery);
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
estimate of the stationary mass lost beyond the cap.

A third, semi-analytic route to the average actuation age is provided by
`aoa_series_mean`: seed the level-1 masses from their closed forms, iterate
the level recursions, and close the sum with the exact matrix-geometric
tail of the 3x3 level map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .analytic import aoa_seed_probs
from .core import Params, shorthand
from .engine import _TRANSITIONS
from .errors import CapError, ConvergenceError, DomainError, TruncationError

__all__ = [
    "SystemChain",
    "TruncatedChain",
    "StationaryDist",
    "build_system_chain",
    "build_aoa_chain",
    "build_aoai_chain",
    "stationary",
    "mean_age",
    "aoa_series_mean",
    "choose_cap",
    "level_masses",
    "occupancy_marginals",
    "seed_masses",
]

SYSTEM_STATES = ((0, 0), (0, 1), (1, 0))

TAIL_MASS_LIMIT = 1e-6

# Level mass below which `aoa_series_mean` closes its sum in closed form.
SERIES_TAIL_EPS = 1e-14

# Largest truncated chain a builder accepts.  The AoAI chain at the CLI floor,
# (0.01, 0.5) with cap 2302, has 2 653 055 states; at lambda1 = 1e-4 its
# cap of 230 257 would give 2.65e10 states, more than memory holds.
MAX_CHAIN_STATES = 3_000_000


@dataclass(frozen=True)
class SystemChain:
    """Row-stochastic 3x3 transition matrix of the (cache, battery) process."""

    params: Params
    matrix: np.ndarray  # ordered by SYSTEM_STATES
    states: tuple = SYSTEM_STATES


@dataclass(frozen=True)
class TruncatedChain:
    """Level-truncated age chain.

    kind        -- 'aoa' (states (age, cache, battery)) or
                   'aoai' (states (aoai, aoi, battery)).
    states      -- (n, 3) int array of the states, one per row, grouped by
                   level in increasing order.
    matrix      -- sparse row matrix; rows at the cap boundary are
                   substochastic, interior rows sum to 1.
    level_cap   -- largest retained age level.
    tail_mass   -- a-priori geometric estimate of stationary mass above the
                   cap, decay_rate**cap / (1 - decay_rate).
    decay_rate  -- per-level geometric decay rate of stationary mass,
                   max(1-lambda1, 1-lambda2).
    """

    kind: str
    params: Params
    states: np.ndarray
    matrix: sp.csr_matrix
    level_cap: int
    tail_mass: float
    decay_rate: float


@dataclass(frozen=True)
class StationaryDist:
    """Solved stationary (or renormalized quasi-stationary) distribution.

    residual -- max-norm change of `probs` under one renormalized step of
                the chain.
    method   -- 'direct', 'power' (the reducible 3-state corner) or
                'gauss-seidel' (truncated chains).
    sweeps   -- iterations the solve took; 0 for a direct solve.
    delta    -- max-norm change over the last iteration; 0.0 for a direct
                solve.
    """

    probs: np.ndarray
    residual: float
    method: str
    sweeps: int
    delta: float


def _transitions(p: Params, occ: np.ndarray, successor) -> sp.coo_matrix:
    """Transition matrix of a chain whose state k has occupancy code occ[k].

    For each slot outcome of positive probability, in the order w, x, y, z,
    `_TRANSITIONS` gives every state's next occupancy code and actuation bit,
    and successor(data, occ2, actuated) the next state's index.  Indices past
    the last state, the levels above a cap, are dropped.
    """
    s = shorthand(p)
    table = np.frombuffer(_TRANSITIONS, dtype=np.uint8)
    n = len(occ)
    parts = []
    # Event code data | energy << 1 of each outcome, as `_TRANSITIONS` indexes it.
    for prob, code in ((s.w, 3), (s.x, 1), (s.y, 2), (s.z, 0)):
        if prob > 0.0:
            entry = table[occ * 4 + code]
            col = successor(code & 1, entry & 3, entry >> 2)
            row = np.flatnonzero(col < n)
            parts.append((np.full(len(row), prob), row, col[row]))
    probs, rows, cols = (np.concatenate(x) for x in zip(*parts))
    return sp.coo_matrix((probs, (rows, cols)), shape=(n, n))


def build_system_chain(p: Params) -> SystemChain:
    """The 3-state occupancy chain; state k has occupancy code k.

    Densifying the COO matrix adds each entry's outcomes in the order w, x, y, z.
    """
    return SystemChain(p, _transitions(p, np.arange(3), lambda data, occ2, act: occ2).toarray())


def _decay_rate(p: Params) -> float:
    # Slowest-decaying level branches: battery-full states thin at rate
    # 1-lambda1, cached-data states at rate 1-lambda2, the empty state at
    # their product.
    return max(1.0 - p.lambda1, 1.0 - p.lambda2)


def choose_cap(p: Params, tail_eps: float) -> int:
    """Smallest level cap whose geometric tail-mass bound is below tail_eps.

    Uses cap = ceil(log(tail_eps) / log(r)) plus a safety margin of 10, with
    r the per-level decay rate, raised where needed to the smallest cap whose
    a-priori tail mass r**cap / (1 - r) is within the `TAIL_MASS_LIMIT` that
    `mean_age` enforces.  Raises CapError above 10**6 levels.
    """
    if not 0.0 < tail_eps < 1.0:
        raise DomainError(f"tail_eps must be in (0, 1), got {tail_eps}")
    r = _decay_rate(p)
    if r == 0.0:
        return 12
    cap = math.ceil(math.log(tail_eps) / math.log(r)) + 10
    cap = max(cap, 2)
    if _a_priori_tail_mass(r, cap) > TAIL_MASS_LIMIT:
        cap = math.ceil(math.log(TAIL_MASS_LIMIT * (1.0 - r)) / math.log(r)) - 1
        while _a_priori_tail_mass(r, cap) > TAIL_MASS_LIMIT:
            cap += 1
    if cap > 10 ** 6:
        raise CapError(
            f"cap {cap} exceeds 10^6; parameters too close to zero for truncation")
    return cap


def _check_size(kind: str, cap: int, n_states: int) -> None:
    if n_states > MAX_CHAIN_STATES:
        raise CapError(f"{kind} chain at cap {cap} has {n_states} states, "
                       f"above the limit of {MAX_CHAIN_STATES}")


def _a_priori_tail_mass(r: float, cap: int) -> float:
    return r ** cap / (1.0 - r) if r > 0.0 else 0.0


def _truncated_chain(kind, p, cap, states, occ, successor) -> TruncatedChain:
    r = _decay_rate(p)
    return TruncatedChain(kind, p, np.column_stack(states),
                          _transitions(p, occ, successor).tocsr(), cap,
                          _a_priori_tail_mass(r, cap), r)


def build_aoa_chain(p: Params, cap: int) -> TruncatedChain:
    """Truncated actuation-age chain over states (age, cache, battery).

    Level 1 holds exactly (1,0,0) and (1,0,1); every level 2..cap holds
    (A,0,0), (A,0,1), (A,1,0).  (A,1,1) is infeasible and (1,1,0) impossible
    because an actuation empties the cache.  (1,c,b) is at index occ = 2c + b
    and (A,c,b) at 3A - 4 + occ.  Raises CapError when the 3*cap - 1 states
    exceed MAX_CHAIN_STATES.
    """
    if cap < 2:
        raise DomainError(f"cap must be >= 2, got {cap}")
    _check_size("aoa", cap, 3 * cap - 1)
    occ = np.concatenate(([0, 1], np.tile([0, 1, 2], cap - 1)))
    age = np.concatenate(([1, 1], np.repeat(np.arange(2, cap + 1), 3)))
    # An actuation restarts the age at 1; level age + 1 starts at 3*age - 1.
    return _truncated_chain("aoa", p, cap, (age, occ >> 1, occ & 1), occ,
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
    if cap < 2:
        raise DomainError(f"cap must be >= 2, got {cap}")
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

    return _truncated_chain("aoai", p, cap, (aoai, aoi, battery), occ, successor)


def _splu():
    """`scipy.sparse.linalg.splu`, imported on first use.

    Importing `scipy.sparse.linalg` takes tens of milliseconds, which every
    CLI command would pay at start-up if this module imported it.
    """
    from scipy.sparse.linalg import splu

    return splu


def stationary(chain, tol: float = 1e-13, maxiter: int = 10 ** 6) -> StationaryDist:
    """Solve pi P = pi, sum(pi) = 1.

    The 3-state chain is solved directly (one balance equation replaced by
    the normalization row).  At the double corner lambda1 = lambda2 = 1 that
    chain is reducible ((0,0) and (0,1) are both closed) and the linear
    system is singular; the distribution reached from the canonical empty
    start state is returned instead.

    Truncated chains are solved by Gauss-Seidel sweeps in state order from
    the uniform vector.  P^T is split into F, the flows to later states and
    the self-loops, and R, the flows back to earlier states; a sweep solves
    (I - F) v' = R v and renormalizes v'.  I - F is lower triangular and
    factored once, so each sweep is one triangular solve.  A self-loop of
    probability 1, as at the level-1 states at (1, 1), would zero a diagonal
    entry of I - F, so such a loop goes to R instead.  Lagging every
    self-loop would also keep I - F nonsingular, but a state that keeps mass
    w per slot then converges at rate w: at (0.9, 0.9), w = 0.81, the AoAI
    chain takes 137 sweeps that way and 13 this way.  The solve has
    converged when successive iterates differ by less than `tol` in max
    norm; the result is the renormalized distribution over retained states.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if maxiter < 1:
        raise DomainError(f"maxiter must be at least 1, got {maxiter}")
    if isinstance(chain, SystemChain):
        pmat = chain.matrix
        a = pmat.T - np.eye(3)
        a[2, :] = 1.0
        try:
            pi = np.linalg.solve(a, np.array([0.0, 0.0, 1.0]))
            method, sweeps, delta = "direct", 0, 0.0
        except np.linalg.LinAlgError:
            pi = np.array([1.0, 0.0, 0.0])
            for sweeps in range(1, maxiter + 1):
                nxt = pi @ pmat
                delta = float(np.abs(nxt - pi).max())
                pi = nxt
                if delta < tol:
                    break
            method = "power"
        residual = float(np.abs(pi @ pmat - pi).max())
        return StationaryDist(pi, residual, method, sweeps, delta)

    # The triplets of P: entry k is P[src[k], m.indices[k]], at
    # (m.indices[k], src[k]) in P^T.
    m = chain.matrix
    n = m.shape[0]
    src = np.repeat(np.arange(n), np.diff(m.indptr))
    ahead = (m.indices > src) | ((m.indices == src) & (m.data < 1.0))
    back = ~ahead
    r = sp.csc_matrix((m.data[back], (m.indices[back], src[back])), shape=(n, n))
    diag = np.arange(n)
    i_minus_f = sp.csc_matrix(
        (np.concatenate((np.ones(n), -m.data[ahead])),
         (np.concatenate((diag, m.indices[ahead])), np.concatenate((diag, src[ahead])))),
        shape=(n, n))
    # With the natural order and diagonal pivots the factor of I - F is I - F
    # itself, with no fill.  SuperLU's default panel of 10 columns makes it
    # touch dense n-row workspaces: at the CLI floor that took the factor
    # from 0.4 to 1.0 s and the peak resident set up by 0.5 GB.
    lu = _splu()(i_minus_f, permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1)

    v = np.full(n, 1.0 / n)
    for sweeps in range(1, maxiter + 1):
        w = lu.solve(r @ v)
        total = w.sum()
        if total <= 0.0:
            raise ConvergenceError("Gauss-Seidel lost all mass")
        w /= total
        delta = float(np.abs(w - v).max())
        v = w
        if delta < tol:
            break
    else:
        raise ConvergenceError(
            f"Gauss-Seidel did not reach tol={tol} within {maxiter} sweeps")
    # One renormalized step of the chain itself: P^T v = R v + F v.
    w = r @ v + (v - i_minus_f @ v)
    w /= w.sum()
    residual = float(np.abs(w - v).max())
    return StationaryDist(v, residual, "gauss-seidel", sweeps, delta)


def _levels(chain: TruncatedChain) -> np.ndarray:
    return chain.states[:, 0]


def level_masses(dist: StationaryDist, chain: TruncatedChain) -> np.ndarray:
    """Stationary mass per age level, index 0 unused so masses[level] reads naturally."""
    return np.bincount(_levels(chain), weights=dist.probs, minlength=chain.level_cap + 1)


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
    if r > 0.0:
        est_tail = m_cap * r / (1.0 - r)
        bound = m_cap * (chain.level_cap * r / (1.0 - r) + r / (1.0 - r) ** 2)
        bound += mean * est_tail
    else:
        est_tail = 0.0
        bound = 0.0
    eps = np.finfo(float).eps
    bound += dist.residual * chain.level_cap + 8.0 * eps * chain.level_cap * mean
    if max(chain.tail_mass, est_tail) > TAIL_MASS_LIMIT:
        raise TruncationError(
            f"estimated tail mass {max(chain.tail_mass, est_tail):.3g} exceeds "
            f"{TAIL_MASS_LIMIT}; raise the cap")
    return mean, bound


def occupancy_marginals(dist: StationaryDist, chain: TruncatedChain) -> np.ndarray:
    """(cache, battery) marginals of an 'aoa' chain, ordered like SYSTEM_STATES."""
    if chain.kind != "aoa":
        raise DomainError("occupancy marginals are defined for the 'aoa' chain")
    # Occupancy code 2 * cache + battery indexes SYSTEM_STATES.
    occ = 2 * chain.states[:, 1] + chain.states[:, 2]
    return np.bincount(occ, weights=dist.probs, minlength=3)


def seed_masses(dist: StationaryDist, chain: TruncatedChain) -> dict:
    """Stationary mass of each level-1 state, keyed by state tuple."""
    level1 = _levels(chain) == 1
    return {tuple(s): pr for s, pr in zip(chain.states[level1].tolist(),
                                          dist.probs[level1].tolist())}


def aoa_series_mean(p: Params) -> float:
    """Average actuation age via the level recursions, seeded from closed forms.

    Level components v_A = (v_{A,0,0}, v_{A,0,1}, v_{A,1,0}) evolve as
    v_{A+1} = v_A M with

        v_{A+1,0,0} = z * v_{A,0,0}
        v_{A+1,0,1} = y * v_{A,0,0} + (1-lambda1) * v_{A,0,1}
        v_{A+1,1,0} = x * v_{A,0,0} + (1-lambda2) * v_{A,1,0}

    The sum of A times the level mass is accumulated until a level's mass
    drops below `SERIES_TAIL_EPS`.  The rest, sum over k >= 1 of
    (A + k) v_A M^k 1, is closed exactly by the matrix-geometric remainder
    v_A M (I - M)^-1 (A 1 + (I - M)^-1 1); I - M is upper triangular with
    diagonal (1 - z, lambda1, lambda2), invertible for valid Params.
    """
    seeds = aoa_seed_probs(p)
    s = shorthand(p)
    q1, q2, z = 1.0 - p.lambda1, 1.0 - p.lambda2, s.z
    a, b, c = seeds.v100, seeds.v101, 0.0
    level = 1
    total = 0.0
    while True:
        lv = a + b + c
        total += level * lv
        if lv < SERIES_TAIL_EPS:
            break
        a, b, c = z * a, s.y * a + q1 * b, s.x * a + q2 * c
        level += 1
        if level > 10 ** 7:  # unreachable for valid Params; loop safety net
            raise ConvergenceError("series did not fall below SERIES_TAIL_EPS")
    m = np.array([[z, s.y, s.x], [0.0, q1, 0.0], [0.0, 0.0, q2]])
    i_minus_m = np.eye(3) - m
    u = np.linalg.solve(i_minus_m, np.ones(3))
    remainder = np.linalg.solve(i_minus_m, level + u)
    return total + float(np.array([a, b, c]) @ m @ remainder)
