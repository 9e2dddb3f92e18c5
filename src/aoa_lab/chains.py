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
levels, leaving boundary rows substochastic; the stationary solve then returns
the renormalized quasi-stationary distribution together with an
estimate of the stationary mass lost beyond the cap.

A third, semi-analytic route to the average actuation age is provided by
`aoa_series_mean`: seed the level-1 masses from their closed forms, iterate
the level recursions, and close the sum with an exact geometric tail.
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
    states      -- state tuples, grouped by level in increasing order.
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
    states: tuple
    matrix: sp.csr_matrix
    level_cap: int
    tail_mass: float
    decay_rate: float

    def dumps(self) -> str:
        """Debug dump: `state_index,level,mid,b,col:prob;...` per row (unstable format)."""
        lines = []
        m = self.matrix.tocsr()
        for i, (level, mid, b) in enumerate(self.states):
            lo, hi = m.indptr[i], m.indptr[i + 1]
            entries = ";".join(
                f"{j}:{v:.17g}" for j, v in zip(m.indices[lo:hi], m.data[lo:hi]))
            lines.append(f"{i},{level},{mid},{b},{entries}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StationaryDist:
    """Solved stationary (or renormalized quasi-stationary) distribution."""

    probs: np.ndarray
    residual: float
    method: str


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
    r the per-level decay rate.  Raises CapError above 10**6 levels.
    """
    if not 0.0 < tail_eps < 1.0:
        raise DomainError(f"tail_eps must be in (0, 1), got {tail_eps}")
    r = _decay_rate(p)
    if r == 0.0:
        return 12
    cap = math.ceil(math.log(tail_eps) / math.log(r)) + 10
    cap = max(cap, 2)
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
    return TruncatedChain(kind, p, tuple(zip(*(x.tolist() for x in states))),
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


def stationary(chain, tol: float = 1e-13, maxiter: int = 10 ** 6) -> StationaryDist:
    """Solve pi P = pi, sum(pi) = 1.

    The 3-state chain is solved directly (one balance equation replaced by
    the normalization row).  At the double corner lambda1 = lambda2 = 1 that
    chain is reducible ((0,0) and (0,1) are both closed) and the linear
    system is singular; the distribution reached from the canonical empty
    start state is returned instead.  Truncated chains are solved by
    renormalized power iteration, converged when successive iterates differ
    by less than `tol` in max norm; the result is the quasi-stationary
    distribution over retained states.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if isinstance(chain, SystemChain):
        pmat = chain.matrix
        a = pmat.T - np.eye(3)
        a[2, :] = 1.0
        try:
            pi = np.linalg.solve(a, np.array([0.0, 0.0, 1.0]))
            method = "direct"
        except np.linalg.LinAlgError:
            pi = np.array([1.0, 0.0, 0.0])
            for _ in range(maxiter):
                nxt = pi @ pmat
                if np.abs(nxt - pi).max() < tol:
                    pi = nxt
                    break
                pi = nxt
            method = "power"
        residual = float(np.abs(pi @ pmat - pi).max())
        return StationaryDist(pi, residual, method)

    pt = chain.matrix.transpose().tocsr()
    n = pt.shape[0]
    v = np.full(n, 1.0 / n)
    for _ in range(maxiter):
        w = pt @ v
        total = w.sum()
        if total <= 0.0:
            raise ConvergenceError("power iteration lost all mass")
        w /= total
        delta = float(np.abs(w - v).max())
        v = w
        if delta < tol:
            break
    else:
        raise ConvergenceError(
            f"power iteration did not reach tol={tol} within {maxiter} sweeps")
    w = pt @ v
    w /= w.sum()
    residual = float(np.abs(w - v).max())
    return StationaryDist(v, residual, "power")


def _levels(chain: TruncatedChain) -> np.ndarray:
    return np.fromiter((s[0] for s in chain.states), dtype=np.int64, count=len(chain.states))


def level_masses(dist: StationaryDist, chain: TruncatedChain) -> np.ndarray:
    """Stationary mass per age level, index 0 unused so masses[level] reads naturally."""
    masses = np.zeros(chain.level_cap + 1)
    np.add.at(masses, _levels(chain), dist.probs)
    return masses


def mean_age(dist: StationaryDist, chain: TruncatedChain) -> tuple[float, float]:
    """Mean age under the solved distribution plus a numerical-error estimate.

    The estimate combines the geometric continuation of the cap-level mass
    (levels above the cap would contribute ~ m_cap * r**k at level cap+k),
    the renormalization shift from the estimated missing tail mass, the
    solver residual propagated across levels, and a floating-point
    accumulation floor.  Raises TruncationError when the estimated tail mass
    exceeds 1e-6.
    """
    levels = _levels(chain)
    mean = float(levels @ dist.probs)
    m_cap = float(dist.probs[levels == chain.level_cap].sum())
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
    out = np.zeros(3)
    lookup = {(0, 0): 0, (0, 1): 1, (1, 0): 2}
    for (_, c, b), prob in zip(chain.states, dist.probs):
        out[lookup[(c, b)]] += prob
    return out


def seed_masses(dist: StationaryDist, chain: TruncatedChain) -> dict:
    """Stationary mass of each level-1 state, keyed by state tuple."""
    return {s: float(pr) for s, pr in zip(chain.states, dist.probs) if s[0] == 1}


def _tail_sum(level: int, rate: float) -> float:
    # sum_{k>=1} (level + k) * rate**k
    if rate <= 0.0:
        return 0.0
    return rate * (level * (1.0 - rate) + 1.0) / (1.0 - rate) ** 2


def aoa_series_mean(p: Params, tail_eps: float) -> float:
    """Average actuation age via the level recursions, seeded from closed forms.

    Level components (v_{A,0,0}, v_{A,0,1}, v_{A,1,0}) evolve as

        v_{A+1,0,0} = z * v_{A,0,0}
        v_{A+1,0,1} = y * v_{A,0,0} + (1-lambda1) * v_{A,0,1}
        v_{A+1,1,0} = x * v_{A,0,0} + (1-lambda2) * v_{A,1,0}

    The sum of A times the level mass is accumulated until a level's mass
    drops below tail_eps, then closed with the exact geometric tail of the
    recursion (each component is a mixture of geometric sequences).
    """
    if tail_eps <= 0.0:
        raise DomainError(f"tail_eps must be positive, got {tail_eps}")
    seeds = aoa_seed_probs(p)
    s = shorthand(p)
    q1, q2, z = 1.0 - p.lambda1, 1.0 - p.lambda2, s.z
    a, b, c = seeds.v100, seeds.v101, 0.0
    level = 1
    total = 0.0
    while True:
        lv = a + b + c
        total += level * lv
        if lv < tail_eps:
            break
        a, b, c = z * a, s.y * a + q1 * b, s.x * a + q2 * c
        level += 1
        if level > 10 ** 7:  # unreachable for valid Params; loop safety net
            raise ConvergenceError("series did not fall below tail_eps")
    ga, g1, g2 = _tail_sum(level, z), _tail_sum(level, q1), _tail_sum(level, q2)
    tail = a * ga + b * g1 + c * g2
    if s.y * a > 0.0:
        tail += s.y * a * (g1 - ga) / (q1 - z)
    if s.x * a > 0.0:
        tail += s.x * a * (g2 - ga) / (q2 - z)
    return total + tail
