import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import aoa_lab
from aoa_lab import chains
from aoa_lab.analytic import (aoa_seed_probs, aoai_seed_probs, avg_aoa,
                              avg_aoai)
from aoa_lab.chains import (MAX_CHAIN_STATES, TAIL_MASS_LIMIT, aoa_series_mean,
                            build_aoa_chain, build_aoai_chain, choose_cap,
                            level_masses, mean_age, stationary)
from aoa_lab.core import RATE_FLOOR, AgeVector, SlotEvents, SystemState, make_params, shorthand
from aoa_lab.engine import EngineState, step
from aoa_lab.errors import (CapError, ConvergenceError, DomainError,
                            TruncationError)
from aoa_lab.validation import SERIES_ROUNDING_BOUND
from chain_readers import occupancy_marginals, seed_masses
from exact_law import slot_table_law


def state_tuples(chain):
    return [tuple(s) for s in chain.states.tolist()]


def row_dict(chain, state):
    m = chain.matrix
    states = state_tuples(chain)
    i = states.index(state)
    lo, hi = m.indptr[i], m.indptr[i + 1]
    return {states[j]: v for j, v in zip(m.indices[lo:hi], m.data[lo:hi])}


class TestChooseCap:
    def test_reference_points(self):
        assert choose_cap(make_params(0.5, 0.5), 1e-10) == 44
        assert choose_cap(make_params(0.99, 0.99), 1e-10) < 20
        assert choose_cap(make_params(0.05, 0.05), 1e-10) == 459

    @pytest.mark.parametrize("tail_eps", [1e-10, 1e-7, 1e-4])
    def test_cap_meets_the_tail_mass_limit_of_mean_age(self, tail_eps):
        # The cap is ceil(log(tail_eps) / log(r)) + 10, raised where that
        # leaves an a-priori tail mass r**cap / (1 - r) above the limit
        # `mean_age` enforces, and then to the smallest cap within it.
        rates = (0.01, 0.02, 0.05, 0.1, 0.3, 0.7, 1.0)
        for l1 in rates:
            for l2 in rates:
                r = max(1 - l1, 1 - l2)
                cap = choose_cap(make_params(l1, l2), tail_eps)
                if r == 0.0:
                    continue
                formula = max(math.ceil(math.log(tail_eps) / math.log(r)) + 10, 2)
                assert r ** cap / (1 - r) <= TAIL_MASS_LIMIT
                if cap != formula:
                    assert cap > formula
                    assert r ** (cap - 1) / (1 - r) > TAIL_MASS_LIMIT

    def test_bad_eps_rejected(self):
        with pytest.raises(DomainError):
            choose_cap(make_params(0.5, 0.5), 0.0)
        with pytest.raises(DomainError):
            choose_cap(make_params(0.5, 0.5), 1.0)

    def test_floor_cap_with_the_smallest_tail_eps(self):
        # The slowest decay the floor allows, r = 0.99, and the smallest
        # positive tail_eps give the largest cap `choose_cap` can return.
        p = make_params(RATE_FLOOR, RATE_FLOOR)
        assert chains._decay_rate(p) <= 0.99
        assert choose_cap(p, 5e-324) == 74_082 <= 10 ** 6

    def test_saturated_corner(self):
        assert choose_cap(make_params(1.0, 1.0), 1e-10) >= 2

    def test_oversized_chains_rejected_before_building(self):
        p = make_params(RATE_FLOOR, 0.5)
        cap = choose_cap(p, 5e-324)
        start = time.perf_counter()
        with pytest.raises(CapError):
            build_aoai_chain(p, cap)  # 2.7e9 states
        with pytest.raises(CapError):
            build_aoa_chain(p, MAX_CHAIN_STATES // 3 + 1)
        assert time.perf_counter() - start < 1.0
        # The floor stays under the limit at the default tail_eps.
        floor_cap = choose_cap(p, 1e-10)
        assert floor_cap * (floor_cap + 3) // 2 <= MAX_CHAIN_STATES


class TestAoaChainStructure:
    def test_state_space_shape(self):
        ch = build_aoa_chain(make_params(0.3, 0.4), cap=6)
        assert ch.states.shape == (3 * 6 - 1, 3)
        assert set(s for s in state_tuples(ch) if s[0] == 1) == {(1, 0, 0), (1, 0, 1)}
        for a in range(2, 7):
            assert set(s for s in state_tuples(ch) if s[0] == a) == {
                (a, 0, 0), (a, 0, 1), (a, 1, 0)}

    def test_cap_below_two_rejected(self):
        with pytest.raises(DomainError):
            build_aoa_chain(make_params(0.3, 0.4), cap=1)

    @pytest.mark.parametrize("l1,l2", [(0.3, 0.4), (0.7, 0.2)])
    def test_rows_match_printed_patterns(self, l1, l2):
        p = make_params(l1, l2)
        s = shorthand(p)
        ch = build_aoa_chain(p, cap=8)
        assert row_dict(ch, (1, 0, 0)) == pytest.approx(
            {(1, 0, 0): s.w, (2, 0, 0): s.z, (2, 0, 1): s.y, (2, 1, 0): s.x})
        assert row_dict(ch, (4, 0, 0)) == pytest.approx(
            {(1, 0, 0): s.w, (5, 0, 0): s.z, (5, 0, 1): s.y, (5, 1, 0): s.x})
        assert row_dict(ch, (1, 0, 1)) == pytest.approx(
            {(1, 0, 0): s.x, (1, 0, 1): s.w, (2, 0, 1): 1 - l1})
        assert row_dict(ch, (5, 0, 1)) == pytest.approx(
            {(1, 0, 0): s.x, (1, 0, 1): s.w, (6, 0, 1): 1 - l1})
        assert row_dict(ch, (3, 1, 0)) == pytest.approx(
            {(1, 0, 0): l2, (4, 1, 0): 1 - l2})

    def test_interior_rows_stochastic_boundary_substochastic(self):
        ch = build_aoa_chain(make_params(0.35, 0.65), cap=10)
        sums = np.asarray(ch.matrix.sum(axis=1)).ravel()
        levels = np.array([s[0] for s in ch.states])
        np.testing.assert_allclose(sums[levels < 10], 1.0, atol=1e-12)
        assert (sums[levels == 10] < 1.0).all()


class TestAoaiChainStructure:
    def test_state_space_shape(self):
        ch = build_aoai_chain(make_params(0.3, 0.4), cap=5)
        assert ch.states.shape == (5 * 8 // 2, 3)
        for ai in range(1, 6):
            expect = {(ai, i, 0) for i in range(1, ai + 1)} | {(ai, ai, 1)}
            assert set(s for s in state_tuples(ch) if s[0] == ai) == expect

    @pytest.mark.parametrize("l1,l2", [(0.3, 0.4), (0.6, 0.15)])
    def test_rows_match_printed_patterns(self, l1, l2):
        p = make_params(l1, l2)
        s = shorthand(p)
        ch = build_aoai_chain(p, cap=9)
        assert row_dict(ch, (1, 1, 0)) == pytest.approx(
            {(1, 1, 0): s.w, (2, 1, 0): s.x, (2, 2, 0): s.z, (2, 2, 1): s.y})
        assert row_dict(ch, (3, 3, 1)) == pytest.approx(
            {(1, 1, 0): s.x, (1, 1, 1): s.w, (4, 4, 1): 1 - l1})
        # Cached-packet state: a harvest actuates the packet aged aoi.
        assert row_dict(ch, (5, 2, 0)) == pytest.approx(
            {(1, 1, 0): s.w, (3, 3, 0): s.y, (6, 1, 0): s.x, (6, 3, 0): s.z})
        # Diagonal no-battery state: empty cache, a lone harvest charges.
        assert row_dict(ch, (4, 4, 0)) == pytest.approx(
            {(1, 1, 0): s.w, (5, 1, 0): s.x, (5, 5, 0): s.z, (5, 5, 1): s.y})

    def test_interior_rows_stochastic(self):
        ch = build_aoai_chain(make_params(0.45, 0.3), cap=8)
        sums = np.asarray(ch.matrix.sum(axis=1)).ravel()
        levels = np.array([s[0] for s in ch.states])
        np.testing.assert_allclose(sums[levels < 8], 1.0, atol=1e-12)
        assert (sums[levels == 8] < 1.0).all()


def _engine_state_for(chain_kind, state):
    if chain_kind == "aoa":
        a, c, b = state
        return EngineState(SystemState(c, b), AgeVector(1, a, a), 0)
    ai, aoi, b = state
    c = 1 if (aoi < ai and b == 0) else 0
    return EngineState(SystemState(c, b), AgeVector(aoi, 1, ai), 0)


def outcome_probs(p):
    """Probability of each slot outcome (data, energy), in the order w, x, y, z."""
    s = shorthand(p)
    return {(1, 1): s.w, (1, 0): s.x, (0, 1): s.y, (0, 0): s.z}


def successor_state(chain_kind, state, data, energy):
    """The chain state the reference stepper reaches from `state` in one slot."""
    new, _ = step(_engine_state_for(chain_kind, state), SlotEvents(bool(data), bool(energy)))
    if chain_kind == "aoa":
        return (new.ages.aoa, new.system.cache, new.system.battery)
    return (new.ages.aoai, new.ages.aoi, new.system.battery)


class TestSemanticsTie:
    # Every generated row must equal the one-step distribution of the
    # reference stepper from the same state, transitions above the cap
    # dropped: identical support, identical probabilities.  No entry adds
    # more than two outcomes, so the comparison is exact.  The lambda = 1
    # points have zero-probability outcomes, which must not be stored.
    @pytest.mark.parametrize("l1,l2", [(0.35, 0.55), (1.0, 0.4), (0.4, 1.0), (1.0, 1.0)])
    @pytest.mark.parametrize("kind,builder", [("aoa", build_aoa_chain),
                                              ("aoai", build_aoai_chain)])
    def test_one_step_distribution(self, kind, builder, l1, l2):
        p = make_params(l1, l2)
        cap = 9
        ch = builder(p, cap=cap)
        for state in state_tuples(ch):
            expected = {}
            for (d, e), pr in outcome_probs(p).items():
                if pr == 0.0:
                    continue
                target = successor_state(kind, state, d, e)
                if target[0] <= cap:
                    expected[target] = expected.get(target, 0.0) + pr
            assert row_dict(ch, state) == expected, state

    # `row_dict` reads a row into a dict, where a second entry for one
    # column would silently overwrite the first: the matrix must hold each
    # (row, column) once.  The builder's CSR must also be exactly what
    # `tocsr` makes of the per-outcome triplets, outcome by outcome in the
    # order w, x, y, z, array for array and dtype for dtype.
    @pytest.mark.parametrize("l1,l2", [(0.3, 0.4), (1.0, 0.4), (0.4, 1.0), (1.0, 1.0)])
    @pytest.mark.parametrize("kind,builder", [("aoa", build_aoa_chain),
                                              ("aoai", build_aoai_chain)])
    def test_matrix_is_canonical_csr_of_outcome_triplets(self, kind, builder, l1, l2):
        import scipy.sparse as sp

        p = make_params(l1, l2)
        for cap in [*range(2, 10), choose_cap(p, 1e-10)]:
            ch = builder(p, cap=cap)
            m = ch.matrix
            n = m.shape[0]
            assert m.format == "csr" and m.has_canonical_format
            row_of = np.repeat(np.arange(n), np.diff(m.indptr))
            assert (np.diff(row_of * n + m.indices) > 0).all(), cap
            states = state_tuples(ch)
            index = {state: k for k, state in enumerate(states)}
            probs, rows, cols = [], [], []
            for (d, e), pr in outcome_probs(p).items():
                if pr == 0.0:
                    continue
                for k, state in enumerate(states):
                    target = successor_state(kind, state, d, e)
                    if target[0] <= cap:
                        probs.append(pr)
                        rows.append(k)
                        cols.append(index[target])
            ref = sp.coo_matrix((np.array(probs), (np.array(rows), np.array(cols))),
                                shape=(n, n)).tocsr()
            for name in ("indptr", "indices", "data"):
                got, want = getattr(m, name), getattr(ref, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), (cap, name)


class TestStationaryTruncated:
    def test_level_one_masses_match_closed_forms(self):
        p = make_params(0.5, 0.5)
        ch = build_aoa_chain(p, cap=200)
        d = stationary(ch)
        masses = seed_masses(d, ch)
        assert masses[(1, 0, 0)] == pytest.approx(0.3, abs=1e-8)
        assert masses[(1, 0, 1)] == pytest.approx(0.1, abs=1e-8)
        assert abs(d.probs.sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("kind,builder", [("aoa", build_aoa_chain),
                                              ("aoai", build_aoai_chain)])
    def test_gauss_seidel_sweeps_on_acceptance_grid(self, kind, builder):
        # Sweeping in level order carries every upward flow at once, so the
        # sweep count stays far below the cap (229 at 0.1) that power
        # iteration needed.  (1, 1), where every state resets to level 1,
        # takes two sweeps.
        rates = (0.1, 0.3, 0.5, 0.7, 0.9)
        points = [(l1, l2) for l1 in rates for l2 in rates] + [(1.0, 1.0)]
        for l1, l2 in points:
            p = make_params(l1, l2)
            d = stationary(builder(p, choose_cap(p, 1e-10)))
            assert 1 <= d.sweeps <= 40, (l1, l2, d.sweeps)
            assert d.delta < 1e-13
            assert d.residual < 1e-11

    def test_convergence_error_on_tiny_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(chains, "MAX_SWEEPS", 2)
        ch = build_aoa_chain(make_params(0.5, 0.5), cap=40)
        with pytest.raises(ConvergenceError):
            stationary(ch)

    def test_occupancy_marginals_match_system_stationary(self):
        # The exact 3-state occupancy law, ordered by occupancy code; at
        # (0.5, 0.5) its balance equations solve to (2/5, 2/5, 1/5) by hand.
        assert slot_table_law(0.5, 0.5)["pi"] == (Fraction(2, 5), Fraction(2, 5),
                                                  Fraction(1, 5))
        for l1, l2 in [(0.5, 0.5), (0.3, 0.6), (1.0, 0.4), (0.4, 1.0)]:
            p = make_params(l1, l2)
            ch = build_aoa_chain(p, choose_cap(p, 1e-10))
            marg = occupancy_marginals(stationary(ch), ch)
            pi = slot_table_law(l1, l2)["pi"]
            assert max(abs(Fraction(m) - q) for m, q in zip(marg.tolist(), pi)) < 1e-8

    def test_delta_identities(self):
        # Occupancy marginals of the actuation-age chain, written through the
        # level-1 masses and the event shorthand.
        p = make_params(0.3, 0.6)
        s = shorthand(p)
        seeds = aoa_seed_probs(p)
        ch = build_aoa_chain(p, choose_cap(p, 1e-10))
        marg = occupancy_marginals(stationary(ch), ch)
        d00 = seeds.v100 / (1 - s.z)
        d01 = (s.y / p.lambda1) * d00 + seeds.v101 / p.lambda1
        d10 = (s.x / p.lambda2) * d00
        np.testing.assert_allclose(marg, [d00, d01, d10], atol=1e-8)

    def test_aoai_marginal_identities(self):
        p = make_params(0.4, 0.55)
        ch = build_aoai_chain(p, choose_cap(p, 1e-10))
        d = stationary(ch)
        i1 = sum(pr for st_, pr in zip(ch.states, d.probs) if st_[1] == 1)
        assert i1 == pytest.approx(p.lambda1, abs=1e-8)
        b1 = sum(pr for st_, pr in zip(ch.states, d.probs) if st_[2] == 1)
        masses = seed_masses(d, ch)
        ai1 = masses[(1, 1, 0)] + masses[(1, 1, 1)]
        l1, l2 = p.lambda1, p.lambda2
        assert ai1 == pytest.approx(l1 * l2 + l1 * (1 - l2) * b1, abs=1e-8)
        assert masses[(1, 1, 1)] == pytest.approx(l1 * l2 * b1, abs=1e-8)
        # Diagonal balance: mass entering (k,k,0) comes from the previous
        # diagonal state plus harvests over cached states at aoi = k-1.
        masses_by_state = dict(zip(state_tuples(ch), d.probs))
        s = shorthand(p)
        for k in (2, 3, 5):
            rhs = s.z * masses_by_state[(k - 1, k - 1, 0)]
            rhs += s.y * sum(masses_by_state.get((i, k - 1, 0), 0.0)
                             for i in range(k, ch.level_cap + 1))
            assert masses_by_state[(k, k, 0)] == pytest.approx(rhs, abs=1e-8)


class TestMeanAge:
    def test_matches_closed_form_at_symmetric_point(self):
        p = make_params(0.5, 0.5)
        ch = build_aoa_chain(p, cap=200)
        mean, bound = mean_age(stationary(ch), ch)
        assert abs(mean - 34 / 15) / (34 / 15) < 1e-6
        ch2 = build_aoai_chain(p, cap=200)
        mean2, _ = mean_age(stationary(ch2), ch2)
        assert abs(mean2 - 22 / 9) / (22 / 9) < 1e-6
        assert bound >= 0.0

    def test_near_edge_limit(self):
        p = make_params(1.0 - 1e-9, 0.5)
        ch = build_aoa_chain(p, choose_cap(p, 1e-10))
        mean, _ = mean_age(stationary(ch), ch)
        assert abs(mean - 2.0) < 1e-4

    def test_truncation_error_when_cap_too_small(self):
        p = make_params(0.1, 0.1)
        ch = build_aoa_chain(p, cap=10)
        with pytest.raises(TruncationError):
            mean_age(stationary(ch), ch)

    @pytest.mark.parametrize("code", [
        "from aoa_lab.chains import build_aoai_chain, mean_age, stationary\n"
        "from aoa_lab.core import make_params\n"
        "ch = build_aoai_chain(make_params(0.1, 0.1), cap=229)\n"
        "assert len(ch.states) == 26564\n"
        "print(mean_age(stationary(ch), ch)[0].hex())",
        "import sys\n"
        "from aoa_lab.cli import main\n"
        "sys.exit(main(['chain', '--metric', 'aoai', '--lambda1', '0.1', '--lambda2', '0.1',"
        " '--tail-eps', '1e-10', '--json']))",
    ], ids=["mean_age", "cli_json"])
    def test_independent_of_blas_thread_count(self, code):
        # The AoAI chain at (0.1, 0.1) has 26 564 states, past the length at
        # which OpenBLAS splits a dot product across its threads; a mean taken
        # by float `@` changed in its last bits between 1 and 2 threads.
        # OpenBLAS runs at most one thread per CPU, so on a one-CPU host both
        # runs are single-threaded and this test cannot fail.
        src = str(Path(aoa_lab.__file__).resolve().parents[1])
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss counts KiB on Linux only")
    def test_floor_chain_memory_and_mean(self):
        # The largest chain the CLI accepts, 2 653 055 states at the rate
        # floor.  Built as one CSR it peaks at about 400 MiB; built as COO
        # triplet parts, concatenated and converted by `tocsr`, it peaked at
        # 807 MiB, which the bound rejects.  The mean and bound are pinned to
        # their bytes from that triplet build.
        code = (
            "import resource\n"
            "from aoa_lab.chains import build_aoai_chain, mean_age, stationary\n"
            "from aoa_lab.core import make_params\n"
            "ch = build_aoai_chain(make_params(0.01, 0.5), cap=2302)\n"
            "built = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(len(ch.states), built, *map(repr, mean_age(stationary(ch), ch)))\n")
        src = str(Path(aoa_lab.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert proc.returncode == 0, proc.stderr
        n, built_kib, mean, bound = proc.stdout.split()
        assert int(n) == 2_653_055
        assert int(built_kib) <= 650 * 1024
        assert (mean, bound) == ("100.00020171457807", "2.2556503158951378e-07")

    def test_level_masses_sum_to_one(self):
        p = make_params(0.6, 0.4)
        ch = build_aoa_chain(p, choose_cap(p, 1e-10))
        masses = level_masses(stationary(ch), ch)
        assert abs(masses.sum() - 1.0) < 1e-10
        assert masses[0] == 0.0


class TestSeriesMean:
    @pytest.mark.parametrize("l1,l2", [(0.5, 0.5), (0.9, 0.9), (0.2, 0.1)])
    def test_matches_closed_form(self, l1, l2):
        p = make_params(l1, l2)
        got = aoa_series_mean(p)
        want = avg_aoa(p)
        assert abs(got - want) / want < 1e-9

    def test_level_recursion_mass_normalizes(self):
        # Independent re-iteration of the recursion: total mass must be 1.
        p = make_params(0.3, 0.7)
        s = shorthand(p)
        seeds = aoa_seed_probs(p)
        a, b, c = seeds.v100, seeds.v101, 0.0
        mass = 0.0
        for _ in range(4000):
            mass += a + b + c
            a, b, c = s.z * a, s.y * a + (1 - p.lambda1) * b, s.x * a + (1 - p.lambda2) * c
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_saturated_corner(self):
        assert aoa_series_mean(make_params(1.0, 1.0)) == pytest.approx(1.0)


class TestBoundsAgainstExactLaw:
    """Each deterministic route lies within its reported bound of the exact mean.

    `slot_table_law` at the float rates is the true mean there, since
    `Fraction(float)` is exact.  The double corner (1, 1), where its solve is
    singular, is left out.
    """

    @staticmethod
    def chain_misses(rates, tail_eps):
        bad = []
        for l1 in rates:
            for l2 in rates:
                if l1 == l2 == 1.0:
                    continue
                p = make_params(l1, l2)
                law = slot_table_law(l1, l2)
                cap = choose_cap(p, tail_eps)
                for metric, build in (("aoa", build_aoa_chain), ("aoai", build_aoai_chain)):
                    chain = build(p, cap)
                    mean, bound = mean_age(stationary(chain), chain)
                    if abs(Fraction(mean) - law[metric]) > bound:
                        bad.append((l1, l2, metric, mean, bound))
        return bad

    @pytest.mark.parametrize("tail_eps", [1e-10, 1e-7])
    def test_chain_within_bound(self, tail_eps):
        bad = self.chain_misses((0.1, 0.3, 0.5, 0.7, 0.9, 1.0), tail_eps)
        assert not bad, bad

    def test_chain_within_bound_at_small_rates(self):
        # Down to the CLI floor, at the loosest tail_eps of the tests, where
        # `choose_cap` raises the cap to meet `mean_age`'s tail-mass limit
        # (from 1614 to 1833 levels at 0.01).  The five points with a 0.01
        # rate solve AoAI chains of 1.7 million states.
        bad = self.chain_misses((0.01, 0.02, 0.05), 1e-7)
        assert not bad, bad

    def test_series_within_rounding_bound(self):
        rates = (0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
        bad = []
        for l1 in rates:
            for l2 in rates:
                if l1 == l2 == 1.0:
                    continue
                got = aoa_series_mean(make_params(l1, l2))
                err = abs(Fraction(got) - slot_table_law(l1, l2)["aoa"])
                if err > SERIES_ROUNDING_BOUND:
                    bad.append((l1, l2, got, float(err)))
        assert not bad, bad
