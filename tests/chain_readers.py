"""Readers of a solved truncated chain that only the tests use."""

import numpy as np


def occupancy_marginals(dist, chain) -> np.ndarray:
    """(cache, battery) marginals of an AoA chain over (0,0), (0,1), (1,0).

    The marginals are indexed by the occupancy code 2 * cache + battery.
    """
    occ = 2 * chain.states[:, 1] + chain.states[:, 2]
    return np.bincount(occ, weights=dist.probs, minlength=3)


def seed_masses(dist, chain) -> dict:
    """Stationary mass of each level-1 state, keyed by state tuple."""
    level1 = chain.states[:, 0] == 1
    return {tuple(s): pr for s, pr in zip(chain.states[level1].tolist(),
                                          dist.probs[level1].tolist())}
