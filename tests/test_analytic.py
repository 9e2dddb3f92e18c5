import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aoa_lab import engine
from aoa_lab.analytic import (aoa_seed_probs, aoai_seed_probs, averages,
                              avg_aoa, avg_aoai, avg_aoi)
from aoa_lab.chains import aoa_series_mean
from aoa_lab.core import make_params
from exact_law import ExactParams, slot_table_law

valid_prob = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)

# Expected values below were frozen from exact rational evaluation of the
# closed forms (independent of the floating-point implementation under test)
# and cross-checked against long simulations.


class TestAvgAoi:
    @pytest.mark.parametrize("l1,expect", [(1.0, 1.0), (0.5, 2.0), (0.1, 10.0)])
    def test_reciprocal_rate(self, l1, expect):
        assert avg_aoi(make_params(l1, 0.5)) == pytest.approx(expect, rel=1e-15)


class TestAvgAoa:
    @pytest.mark.parametrize("l1,l2,expect", [
        (0.5, 0.5, 34 / 15),
        (0.2, 0.1, 4985 / 511),
        (0.9, 0.1, 60385690 / 6045039),
        (0.1, 0.1, 6410 / 551),
        (1.0, 0.5, 2.0),
        (0.5, 1.0, 2.0),
        (1.0, 1.0, 1.0),
    ])
    def test_frozen_values(self, l1, l2, expect):
        assert avg_aoa(make_params(l1, l2)) == pytest.approx(expect, rel=1e-12)

    def test_result_at_least_one(self):
        for l1 in (0.01, 0.3, 0.99, 1.0):
            for l2 in (0.01, 0.4, 1.0):
                assert avg_aoa(make_params(l1, l2)) >= 1.0 - 1e-12


class TestAvgAoai:
    @pytest.mark.parametrize("l1,l2,expect", [
        (0.5, 0.5, 22 / 9),
        (0.1, 0.1, 144470 / 10469),
        (0.2, 0.1, 41375 / 3577),
        (1.0, 0.5, 2.0),
        (0.5, 1.0, 2.0),
        (1.0, 1.0, 1.0),
    ])
    def test_frozen_values(self, l1, l2, expect):
        assert avg_aoai(make_params(l1, l2)) == pytest.approx(expect, rel=1e-12)


def _exact_points():
    """24 seeded random points of ({1, ..., 10^9 - 1} / 10^9)^2, then 8 on the lambda = 1 edges."""
    rng = random.Random(20240)

    def rate():
        return Fraction(rng.randrange(1, 10 ** 9), 10 ** 9)

    edge = [Fraction(1, 100), rate(), rate(), rate()]
    return ([(rate(), rate()) for _ in range(24)]
            + [(Fraction(1), r) for r in edge] + [(r, Fraction(1)) for r in edge])


class TestSlotTableLaw:
    def test_closed_forms_equal_slot_table_law(self):
        """Every closed form equals the law derived from `_step_core`'s table, exactly.

        `slot_table_law` reads only `engine._TRANSITIONS`; the closed forms are
        evaluated on the same `Fraction` rates, so both sides are exact and are
        compared with `==`.

        Degree bound: by Cramer's rule on the 3x3 solves of `slot_table_law`,
        the occupancy law is degree <= 4 over degree <= 4 in (lambda1,
        lambda2), the aoi and aoa means <= 10 over <= 10, the aoai mean (whose
        right-hand side carries the aoi moments) <= 16 over <= 16 and the
        level-1 masses <= 6 over <= 4.  The shipped forms are 0 over 1 (aoi),
        7 over 8 (aoa), 9 over 10 (aoai) and <= 6 over 4 (level-1 masses).
        The aoa series, v100 w0 + v101 w1 as its back-substitutions build it
        from the level-1 masses, is <= 11 over <= 12 (w0 is <= 6 over 8 and
        w1 is 0 over 2; reduced, it is the 7 over 8 of the closed form).  If
        a form N/D of at most these degrees, such as one with a wrong
        coefficient, differs from the law A/B, then Q = N*B - A*D is a nonzero
        polynomial of total degree <= 26 (<= 22 for the series).

        Schwartz-Zippel: with each rate drawn uniformly from {1, ..., 10^9 - 1}
        / 10^9, Q vanishes at one point with probability <= 26 / (10^9 - 1)
        < 2.7e-8, so a wrong form passes all 24 random points with
        probability < (2.7e-8)^24 < 1e-180.  A point where either side divides
        by zero raises instead of passing.
        """
        for l1, l2 in _exact_points():
            law = slot_table_law(l1, l2)
            p = ExactParams(l1, l2)
            aoa_seeds, aoai_seeds = aoa_seed_probs(p), aoai_seed_probs(p)
            assert avg_aoi(p) == law["aoi"], (l1, l2)
            assert avg_aoa(p) == law["aoa"], (l1, l2)
            assert avg_aoai(p) == law["aoai"], (l1, l2)
            assert aoa_series_mean(p) == law["aoa"], (l1, l2)
            assert (aoa_seeds.v100, aoa_seeds.v101) == law["aoa_seeds"], (l1, l2)
            assert (aoai_seeds.v110, aoai_seeds.v111) == law["aoai_seeds"], (l1, l2)


class TestFormulaVsSimulation:
    # The closed forms and the simulator are independent routes; they must
    # land on the same numbers.
    @pytest.mark.parametrize("l1,l2", [(0.5, 0.5), (0.8, 0.2)])
    def test_agreement_at_monte_carlo_scale(self, l1, l2):
        p = make_params(l1, l2)
        s = engine.run(p, 1_000_000, seed=2024)
        assert s.mean_aoa == pytest.approx(avg_aoa(p), rel=0.01)
        assert s.mean_aoai == pytest.approx(avg_aoai(p), rel=0.01)


class TestOrderingFacts:
    def test_aoai_dominates_both_on_wide_grid(self):
        grid = [k / 20 for k in range(1, 21)]
        for l1 in grid:
            for l2 in grid:
                m = averages(make_params(l1, l2))
                assert m.aoai_bar >= m.aoa_bar - 1e-12
                assert m.aoai_bar >= m.aoi_bar - 1e-12

    def test_aoi_aoa_ordering_fails_in_energy_rich_region(self):
        # Characterization of the model: with scarce data and plentiful
        # energy the battery regularizes inter-actuation gaps and the mean
        # actuation age drops below the mean information age.  Confirmed by
        # simulation at many sigma; see the 0.1/0.3 value 9.8183 < 10.
        m = averages(make_params(0.1, 0.3))
        assert m.aoa_bar < m.aoi_bar
        assert m.aoa_bar == pytest.approx(9.818302868, rel=1e-9)

    def test_aoi_aoa_ordering_holds_on_diagonal(self):
        for l in (0.1, 0.3, 0.5, 0.7, 0.9):
            m = averages(make_params(l, l))
            assert m.aoi_bar <= m.aoa_bar <= m.aoai_bar


class TestLimits:
    @pytest.mark.parametrize("l2", [0.25, 0.5, 0.9])
    def test_certain_data_edge(self, l2):
        a = avg_aoa(make_params(1.0 - 1e-6, l2))
        assert abs(a - 1.0 / l2) / (1.0 / l2) < 1e-4
        ai = avg_aoai(make_params(1.0 - 1e-6, l2))
        assert abs(ai - 1.0 / l2) / (1.0 / l2) < 1e-4

    @pytest.mark.parametrize("l1", [0.25, 0.5, 0.9])
    def test_certain_energy_edge(self, l1):
        for f in (avg_aoa, avg_aoai):
            v = f(make_params(l1, 1.0 - 1e-6))
            assert abs(v - 1.0 / l1) / (1.0 / l1) < 1e-4

    def test_edge_values_by_direct_substitution(self):
        assert avg_aoa(make_params(1.0, 0.25)) == pytest.approx(4.0, rel=1e-12)
        assert avg_aoai(make_params(0.25, 1.0)) == pytest.approx(4.0, rel=1e-12)


class TestSeedProbs:
    def test_hand_substituted_point(self):
        s = aoa_seed_probs(make_params(0.5, 0.5))
        assert s.v100 == pytest.approx(0.3, abs=1e-15)
        assert s.v101 == pytest.approx(0.1, abs=1e-15)
        t = aoai_seed_probs(make_params(0.5, 0.5))
        assert t.v110 == pytest.approx(0.25, abs=1e-15)
        assert t.v111 == pytest.approx(0.1, abs=1e-15)

    def test_second_hand_substituted_point(self):
        s = aoa_seed_probs(make_params(0.2, 0.1))
        assert s.v100 == pytest.approx(63 / 730, rel=1e-12)
        assert s.v101 == pytest.approx(1 / 365, rel=1e-12)
        t = aoai_seed_probs(make_params(0.2, 0.1))
        assert t.v110 == pytest.approx(153 / 3650, rel=1e-12)
        assert t.v111 == pytest.approx(1 / 365, rel=1e-12)

    def test_certain_data_kills_battery_full_state(self):
        assert aoa_seed_probs(make_params(1.0, 0.5)).v101 == 0.0
        assert aoai_seed_probs(make_params(1.0, 0.7)).v111 == 0.0

    def test_certain_energy_by_direct_substitution(self):
        s = aoa_seed_probs(make_params(0.4, 1.0))
        assert s.v100 == 0.0
        assert s.v101 == pytest.approx(0.4, rel=1e-12)

    def test_double_corner_limit(self):
        s = aoa_seed_probs(make_params(1.0, 1.0))
        assert (s.v100, s.v101) == (1.0, 0.0)
        t = aoai_seed_probs(make_params(1.0, 1.0))
        assert (t.v110, t.v111) == (1.0, 0.0)

    @given(valid_prob, st.floats(min_value=0.01, max_value=0.99))
    def test_both_structural_relations_hold(self, l1, l2):
        # The two independent linear relations between the level-1 masses
        # must both be satisfied by the closed forms.
        p = make_params(l1, l2)
        s = aoa_seed_probs(p)
        q1, q2 = 1 - l1, 1 - l2
        lhs1 = (l1 * l2 + q1 * l2 ** 2 + l1 ** 2 * q2) / (q1 * l2 * q2 - l2) * s.v100 + l1
        assert s.v101 == pytest.approx(lhs1, abs=1e-12)
        lhs2 = (q1 * l2 ** 2 / q2) * (1.0 / (1.0 - q1 * q2)) * s.v100
        assert s.v101 == pytest.approx(lhs2, abs=1e-12)

    @given(valid_prob, valid_prob)
    def test_masses_are_probabilities(self, l1, l2):
        p = make_params(l1, l2)
        s = aoa_seed_probs(p)
        assert 0.0 <= s.v100 <= 1.0 and 0.0 <= s.v101 <= 1.0
        assert s.v100 + s.v101 <= 1.0 + 1e-12
        t = aoai_seed_probs(p)
        assert 0.0 <= t.v110 <= 1.0 and 0.0 <= t.v111 <= 1.0
        assert t.v110 + t.v111 <= 1.0 + 1e-12
