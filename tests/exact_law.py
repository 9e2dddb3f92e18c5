"""Exact stationary law of the actuator, derived from the slot-rule table alone.

`slot_table_law` reads nothing but `engine._TRANSITIONS`, the table of
`_step_core`, and computes in `fractions.Fraction`, so its results are the
exact means at the given rates.  `Fraction(float)` is exact too: at float
rates the result is the true mean at the float inputs.

Write pr(code) for the slot-outcome probability of code = data | energy << 1
and s -> t for the occupancy move the table gives.

* The occupancy law pi solves pi = pi P with sum(pi) = 1; it is returned
  as 'pi', ordered by occupancy code 2 * cache + battery: (0,0), (0,1),
  (1,0).
* For each age X in (aoi, aoa, aoai) the first moments m_X(s) = E[X; occ = s]
  solve the 3x3 balance

      m_X(t) = sum over moves s -> t of pr * (pi(s) + [X kept] m_X(s)
                                              + [X = aoai, actuated, no data] m_aoi(s)),

  where aoi is kept (grows by one) without data, and aoa and aoai without an
  actuation; an actuation without data hands aoai the grown aoi.  The mean is
  sum_s m_X(s).
* The level-1 masses are the actuated outcomes, split by the battery after
  the slot: v(b) = sum pi(s) pr over actuated moves ending in (0, b).  Those
  of the actuated-information chain (aoai = aoi = 1) count data outcomes
  only.

At the double corner (1, 1) the occupancy chain is reducible and the solve
is singular; callers leave that point out.
"""

from collections import namedtuple
from fractions import Fraction

from aoa_lab.engine import _TRANSITIONS

# A Params stand-in that carries Fraction rates; `Params` admits int and float only.
ExactParams = namedtuple("ExactParams", "lambda1 lambda2")


def _solve(a, b):
    """x with a x = b, by Gauss-Jordan elimination over Fractions."""
    n = len(b)
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def slot_table_law(l1, l2) -> dict:
    """Exact occupancy law, means and level-1 masses at rates (l1, l2).

    'pi' is the occupancy law, ordered by occupancy code.  'aoi', 'aoa' and
    'aoai' are the means.  'aoa_seeds' is (v100, v101) and 'aoai_seeds' is
    (v110, v111), as in `analytic.aoa_seed_probs` and
    `analytic.aoai_seed_probs`.
    """
    l1, l2 = Fraction(l1), Fraction(l2)
    pr = ((1 - l1) * (1 - l2), l1 * (1 - l2), (1 - l1) * l2, l1 * l2)
    # (from, to, probability, data, actuated) of every slot outcome.
    moves = [(s, _TRANSITIONS[4 * s + code] & 3, pr[code], code & 1,
              _TRANSITIONS[4 * s + code] >> 2)
             for s in range(3) for code in range(4)]

    balance = [[sum(q for s, t, q, _, _ in moves if s == j and t == i) - (i == j)
                for j in range(3)] for i in range(2)]
    pi = _solve(balance + [[1, 1, 1]], [0, 0, 1])

    def moments(kept, carried=None):
        a = [[(i == j) - sum(q for s, t, q, d, act in moves
                             if s == j and t == i and kept(d, act))
              for j in range(3)] for i in range(3)]
        b = [sum(q * (pi[s] + (carried[s] if carried and act and not d else 0))
                 for s, t, q, d, act in moves if t == i)
             for i in range(3)]
        return _solve(a, b)

    m_aoi = moments(lambda d, act: not d)
    m_aoa = moments(lambda d, act: not act)
    m_aoai = moments(lambda d, act: not act, carried=m_aoi)

    def level1(data_only):
        return tuple(sum(pi[s] * q for s, t, q, d, act in moves
                         if act and t == b and (d or not data_only))
                     for b in (0, 1))

    return {"pi": tuple(pi), "aoi": sum(m_aoi), "aoa": sum(m_aoa), "aoai": sum(m_aoai),
            "aoa_seeds": level1(False), "aoai_seeds": level1(True)}
