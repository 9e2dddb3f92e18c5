"""Deeper structural cross-checks tying the routes to each other.

These go beyond the per-row pattern tests: full stationary balance of the
generated chains, infeasible-state fuzzing of the fast kernel at scale, and
distribution-level (not just mean-level) agreement between the simulator and
the truncated chains.
"""

import numpy as np
import pytest

from aoa_lab.chains import (build_aoa_chain, build_aoai_chain, choose_cap,
                            level_masses, stationary)
from aoa_lab.cli import TRACE_FIELDS
from aoa_lab.core import make_params, shorthand
from aoa_lab.engine import _simulate, _slot_steps, _trace_columns
from aoa_lab.errors import DomainError
from packed_flags import scan_flags


class TestStationaryBalancePatterns:
    # The solved distribution must satisfy the level-recursion balance
    # equations on every retained state, not just the sampled rows.

    @pytest.mark.parametrize("l1,l2", [(0.3, 0.6), (0.7, 0.25)])
    def test_actuation_age_recursions(self, l1, l2):
        p = make_params(l1, l2)
        s = shorthand(p)
        ch = build_aoa_chain(p, choose_cap(p, 1e-10))
        v = dict(zip(map(tuple, ch.states.tolist()), stationary(ch).probs))
        for a in range(1, ch.level_cap):
            v110 = v.get((a, 1, 0), 0.0)  # no cached-data state at level 1
            assert v[(a + 1, 0, 0)] == pytest.approx(s.z * v[(a, 0, 0)], abs=1e-10)
            assert v[(a + 1, 0, 1)] == pytest.approx(
                s.y * v[(a, 0, 0)] + (1 - l1) * v[(a, 0, 1)], abs=1e-10)
            assert v[(a + 1, 1, 0)] == pytest.approx(
                s.x * v[(a, 0, 0)] + (1 - l2) * v110, abs=1e-10)

    @pytest.mark.parametrize("l1,l2", [(0.3, 0.6), (0.6, 0.2)])
    def test_actuated_information_patterns(self, l1, l2):
        p = make_params(l1, l2)
        s = shorthand(p)
        ch = build_aoai_chain(p, choose_cap(p, 1e-10))
        v = dict(zip(map(tuple, ch.states.tolist()), stationary(ch).probs))
        cap = ch.level_cap
        for ai in range(2, cap + 1):
            # fresh-information level entry
            assert v[(ai, 1, 0)] == pytest.approx(
                s.x * sum(v[(ai - 1, i, 0)] for i in range(1, ai)), abs=1e-9)
            # interior cached-packet diagonal shift
            for i in range(2, ai):
                assert v[(ai, i, 0)] == pytest.approx(
                    s.z * v[(ai - 1, i - 1, 0)], abs=1e-9)
            # battery-full diagonal recursion
            assert v[(ai, ai, 1)] == pytest.approx(
                s.y * v[(ai - 1, ai - 1, 0)] + (1 - l1) * v[(ai - 1, ai - 1, 1)],
                abs=1e-9)


class TestKernelFuzz:
    def test_infeasible_state_never_appears_at_scale(self):
        # One million slots per parameter point; state code 3 would be the
        # infeasible (cache=1, battery=1).
        rng = np.random.default_rng(99)
        for l1, l2 in [(0.05, 0.95), (0.5, 0.5), (0.95, 0.05), (1.0, 0.3), (0.3, 1.0)]:
            u = rng.random((1_000_000, 2))
            keys, end = scan_flags(u < (l1, l2), 0)
            st = _slot_steps(*divmod(keys, 3)) & 3
            assert not (st == 3).any()
            assert end != 3

    def test_actuation_count_bounded_by_slots(self):
        _, _, actuations = _simulate(make_params(0.9, 0.9), 50_000, seed=1, warmup=0,
                                     n_batches=1)
        assert 0 <= actuations <= 50_000


class TestDistributionAgreement:
    # Beyond matching means: the empirical age histogram of a long run must
    # match the chain's stationary level masses in total variation.

    def _empirical_age_masses(self, p, which, slots, seed, cap):
        # The simulator's own ages: `trace`'s columns of the seeded flags.
        u = np.random.default_rng(seed).random((slots, 2))
        hist = np.zeros(cap + 1, dtype=np.int64)
        column = TRACE_FIELDS.index(which)
        for rows in _trace_columns(u < (p.lambda1, p.lambda2)):
            ages = rows[rows[:, 0] > 1000, column]
            hist += np.bincount(np.minimum(ages, cap), minlength=cap + 1)
        return hist / hist.sum()

    @pytest.mark.parametrize("which,builder", [("aoa", build_aoa_chain),
                                               ("aoai", build_aoai_chain)])
    def test_total_variation_small(self, which, builder):
        p = make_params(0.4, 0.6)
        cap = choose_cap(p, 1e-10)
        chain = builder(p, cap)
        masses = level_masses(stationary(chain), chain)
        emp = self._empirical_age_masses(p, which, 2_000_000, seed=17, cap=cap)
        tv = 0.5 * np.abs(masses - emp).sum()
        assert tv < 0.005


class TestCapValidation:
    def test_aoai_cap_below_two_rejected(self):
        with pytest.raises(DomainError):
            build_aoai_chain(make_params(0.5, 0.5), cap=1)
