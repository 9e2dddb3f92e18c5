"""Acceptance suite.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints a single `ACCEPTANCE <n> PASS/FAIL` line (visible with `pytest -s`
or in the captured output of failing tests).

Criterion 7's ordering clause checks the mean ordering of the three ages
that the model guarantees.  aoai_bar >= max(aoi_bar, aoa_bar) holds at every
grid point, in the closed form and exactly in every seeded run, because aoai
bounds both other ages in every slot.  The aoi <= aoa leg is not a property
of this model: in the data-scarce / energy-rich corner the exact closed
forms, the truncated chains, the recursive series and long simulations all
agree that for example aoa_bar(0.1, 0.3) = 9.8183 < 10 = aoi_bar(0.1, 0.3).
The test therefore pins the exact set of grid points where the closed form
puts aoa below aoi, and requires the simulation to show the closed form's
sign wherever the gap stands clear of the simulation's own noise.
"""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from aoa_lab import analytic, chains, engine
from aoa_lab.cli import main as cli_main
from aoa_lab.core import make_params
from chain_readers import occupancy_marginals, seed_masses
from exact_law import slot_table_law

GRID_VALUES = (0.1, 0.3, 0.5, 0.7, 0.9)
SLOTS = 10_000_000
BASE_SEED = 20240
TAIL_EPS = 1e-10

# Grid points where the closed form puts aoa_bar below aoi_bar (data scarce,
# energy plentiful).  Criteria 3 and 4 confirm every one of them through the
# truncated chains (tol 1e-6) and the level series (tol 1e-9): the smallest
# gap, at (0.1, 0.9), is 1.1e-4 of aoi_bar.
AOA_BELOW_AOI = frozenset({(0.1, 0.3), (0.1, 0.5), (0.1, 0.7), (0.1, 0.9),
                           (0.3, 0.7), (0.3, 0.9)})
# A simulated aoa - aoi gap must carry the closed form's sign wherever the
# closed-form gap exceeds this many standard errors of the simulated gap.
# A sign flip then needs a batch-means t statistic (19 degrees of freedom)
# beyond 4, which happens with probability at most 3.8e-4 per checked point.
GAP_SIGMAS = 4.0

TRACE_EVENTS = "t,data,energy\n1,0,0\n2,1,0\n3,0,0\n4,0,1\n5,0,0\n6,1,0\n7,0,0\n"
TRACE_EXPECTED = """\
t,data,energy,cache,battery,actuated,aoi,aoa,aoai
1,0,0,0,0,0,2,2,2
2,1,0,1,0,0,1,3,3
3,0,0,1,0,0,2,4,4
4,0,1,0,0,1,3,1,3
5,0,0,0,0,0,4,2,4
6,1,0,1,0,0,1,3,5
7,0,0,1,0,0,2,4,6
"""


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def grid_points():
    return [make_params(a, b) for a in GRID_VALUES for b in GRID_VALUES]


@pytest.fixture(scope="module")
def grid_sims(grid_points):
    """One 10^7-slot seeded run per grid point, shared by criteria 2 and 7.

    Each value is the point's `RunSummary`, which holds the means and their
    batch-means standard errors.
    """
    return {(p.lambda1, p.lambda2): engine.run_batched(p, SLOTS, BASE_SEED + i)
            for i, p in enumerate(grid_points)}


@pytest.fixture(scope="module")
def grid_chains(grid_points):
    """Solved truncated chains per grid point, shared by criteria 3, 5 and 6."""
    out = {}
    for p in grid_points:
        cap = chains.choose_cap(p, TAIL_EPS)
        aoa_chain = chains.build_aoa_chain(p, cap)
        aoa_dist = chains.stationary(aoa_chain)
        aoai_chain = chains.build_aoai_chain(p, cap)
        aoai_dist = chains.stationary(aoai_chain)
        out[(p.lambda1, p.lambda2)] = {
            "cap": cap,
            "aoa_mean": chains.mean_age(aoa_dist, aoa_chain)[0],
            "aoai_mean": chains.mean_age(aoai_dist, aoai_chain)[0],
            "aoa_seeds": seed_masses(aoa_dist, aoa_chain),
            "aoai_seeds": seed_masses(aoai_dist, aoai_chain),
            "occupancy": occupancy_marginals(aoa_dist, aoa_chain),
            "i1": sum(pr for s, pr in zip(aoai_chain.states, aoai_dist.probs)
                      if s[1] == 1),
            "b1": sum(pr for s, pr in zip(aoai_chain.states, aoai_dist.probs)
                      if s[2] == 1),
        }
    return out


def test_criterion_1_trace_replay(capsys, tmp_path):
    events_file = tmp_path / "events.csv"
    events_file.write_text(TRACE_EVENTS)
    t0 = time.perf_counter()
    code = cli_main(["trace", "--events", str(events_file)])
    elapsed = time.perf_counter() - t0
    out, _ = capsys.readouterr()
    ok = code == 0 and out == TRACE_EXPECTED and elapsed < 1.0
    _line(1, ok, f"trace replay exact integer match in {elapsed:.3f}s")
    assert code == 0
    assert out == TRACE_EXPECTED
    assert elapsed < 1.0


def test_criterion_2_simulation_matches_closed_forms(grid_sims):
    bad = []
    worst = 0.0
    for (l1, l2), s in grid_sims.items():
        ref = analytic.averages(make_params(l1, l2))
        for name, got, want in [("aoi", s.mean_aoi, ref.aoi_bar),
                                ("aoa", s.mean_aoa, ref.aoa_bar),
                                ("aoai", s.mean_aoai, ref.aoai_bar)]:
            rel = abs(got - want) / want
            worst = max(worst, rel)
            if rel >= 0.01:
                bad.append((l1, l2, name, got, want, rel))
    _line(2, not bad, f"25-point 10^7-slot simulation vs closed forms, "
                      f"worst rel dev {worst:.2e} (tol 1e-2)")
    assert not bad, bad


def test_criterion_3_chains_match_closed_forms(grid_chains):
    bad = []
    worst = 0.0
    for (l1, l2), sol in grid_chains.items():
        ref = analytic.averages(make_params(l1, l2))
        for name, got, want in [("aoa", sol["aoa_mean"], ref.aoa_bar),
                                ("aoai", sol["aoai_mean"], ref.aoai_bar)]:
            rel = abs(got - want) / want
            worst = max(worst, rel)
            if rel >= 1e-6:
                bad.append((l1, l2, name, got, want, rel))
    _line(3, not bad, f"truncated chains (tail_eps 1e-10) vs closed forms, "
                      f"worst rel dev {worst:.2e} (tol 1e-6)")
    assert not bad, bad


def test_criterion_4_series_matches_closed_form(grid_points):
    bad = []
    worst = 0.0
    for p in grid_points:
        got = chains.aoa_series_mean(p)
        want = analytic.avg_aoa(p)
        rel = abs(got - want) / want
        worst = max(worst, rel)
        if rel >= 1e-9:
            bad.append((p.lambda1, p.lambda2, got, want, rel))
    _line(4, not bad, f"recursive series vs closed form, "
                      f"worst rel dev {worst:.2e} (tol 1e-9)")
    assert not bad, bad


def test_criterion_5_steady_state_identities(grid_chains):
    bad = []
    worst = 0.0

    def check(l1, l2, name, got, want, tol=1e-8):
        nonlocal worst
        dev = abs(got - want)
        worst = max(worst, dev)
        if dev >= tol:
            bad.append((l1, l2, name, got, want, dev))

    for (l1, l2), sol in grid_chains.items():
        p = make_params(l1, l2)
        sa = analytic.aoa_seed_probs(p)
        check(l1, l2, "v100", sol["aoa_seeds"][(1, 0, 0)], sa.v100)
        check(l1, l2, "v101", sol["aoa_seeds"][(1, 0, 1)], sa.v101)
        si = analytic.aoai_seed_probs(p)
        v110 = sol["aoai_seeds"][(1, 1, 0)]
        v111 = sol["aoai_seeds"][(1, 1, 1)]
        check(l1, l2, "v110", v110, si.v110)
        check(l1, l2, "v111", v111, si.v111)
        check(l1, l2, "P(aoi=1)", sol["i1"], l1)
        b1 = sol["b1"]
        check(l1, l2, "age-one mass identity", v110 + v111,
              l1 * l2 + l1 * (1 - l2) * b1)
        check(l1, l2, "v111 battery identity", v111, l1 * l2 * b1)

    mid = grid_chains[(0.5, 0.5)]
    for name, got, want in [("v100@0.5", mid["aoa_seeds"][(1, 0, 0)], 0.3),
                            ("v101@0.5", mid["aoa_seeds"][(1, 0, 1)], 0.1),
                            ("v110@0.5", mid["aoai_seeds"][(1, 1, 0)], 0.25),
                            ("v111@0.5", mid["aoai_seeds"][(1, 1, 1)], 0.1)]:
        check(0.5, 0.5, name, got, want)

    _line(5, not bad, f"level-1 masses and marginal identities, "
                      f"worst abs dev {worst:.2e} (tol 1e-8)")
    assert not bad, bad


def test_criterion_6_occupancy_marginals(grid_chains):
    bad = []
    worst = 0.0
    for (l1, l2), sol in grid_chains.items():
        pi = slot_table_law(l1, l2)["pi"]
        dev = float(max(abs(Fraction(m) - q) for m, q in zip(sol["occupancy"].tolist(), pi)))
        worst = max(worst, dev)
        if dev >= 1e-8:
            bad.append((l1, l2, sol["occupancy"], pi))
    mid = grid_chains[(0.5, 0.5)]["occupancy"]
    for got, want in zip(mid, (0.4, 0.4, 0.2)):
        if abs(got - want) >= 1e-8:
            bad.append((0.5, 0.5, tuple(mid), (0.4, 0.4, 0.2)))
    _line(6, not bad, f"age-chain occupancy marginals vs exact 3-state occupancy law, "
                      f"worst abs dev {worst:.2e} (tol 1e-8)")
    assert not bad, bad


def test_criterion_7_mean_ordering(grid_sims):
    problems = []
    below = set()
    checked = set()
    for (l1, l2), s in grid_sims.items():
        ref = analytic.averages(make_params(l1, l2))
        # (a) aoai bounds both other ages in every slot, hence in every mean;
        # the simulated means are exact integer sums over one window, so the
        # bound holds exactly there too.
        if not ref.aoai_bar >= max(ref.aoi_bar, ref.aoa_bar):
            problems.append(("analytic dominance", l1, l2, ref))
        if not s.mean_aoai >= max(s.mean_aoi, s.mean_aoa):
            problems.append(("sim dominance", l1, l2, s.mean_aoi, s.mean_aoa, s.mean_aoai))
        # (b) the closed form's aoi <= aoa leg and its exception region.
        gap = ref.aoa_bar - ref.aoi_bar
        if gap < 0:
            below.add((l1, l2))
        # (c) the simulation shows the same sign outside its noise.  The sum
        # of the two standard errors bounds the standard error of the
        # difference whatever the correlation between the two means; ties
        # inside it are not asserted.
        se_gap = s.stderr_aoi + s.stderr_aoa
        if abs(gap) > GAP_SIGMAS * se_gap:
            checked.add((l1, l2))
            sim_gap = s.mean_aoa - s.mean_aoi
            if not sim_gap * gap > 0:
                problems.append(("sim sign", l1, l2, sim_gap, gap, se_gap))
    if below != AOA_BELOW_AOI:
        problems.append(("aoa < aoi region", sorted(below), sorted(AOA_BELOW_AOI)))
    if (0.1, 0.3) not in checked:
        problems.append(("(0.1, 0.3) gap within simulation noise",))
    _line(7, not problems,
          "mean ordering aoai>=max(aoi,aoa) at every grid point; aoi<=aoa except "
          f"at the {len(AOA_BELOW_AOI)} data-scarce/energy-rich points "
          "(e.g. aoa_bar(0.1,0.3)=9.8183 < 10=aoi_bar), simulation sign agrees at "
          f"{len(checked)} points beyond {GAP_SIGMAS:g} sigma "
          f"({len(problems)} problems)")
    assert not problems, problems


def test_criterion_7_limits():
    bad = []
    worst = 0.0
    for l2 in (0.25, 0.5, 0.9):
        got = analytic.avg_aoa(make_params(1.0 - 1e-6, l2))
        rel = abs(got - 1.0 / l2) * l2
        worst = max(worst, rel)
        if rel >= 1e-4:
            bad.append((l2, got))
    _line(7, not bad, f"near-edge limits of avg_aoa vs 1/lambda2, "
                      f"worst rel dev {worst:.2e} (tol 1e-4)")
    assert not bad, bad


def test_criterion_8_numerical_findings(grid_points):
    problems = []

    # (a) non-monotonicity witness with frozen exact-rational endpoints
    low = analytic.avg_aoa(make_params(0.2, 0.1))
    high = analytic.avg_aoa(make_params(0.9, 0.1))
    if abs(low - 4985 / 511) / (4985 / 511) >= 1e-9:
        problems.append(("endpoint value", low))
    if abs(high - 60385690 / 6045039) / (60385690 / 6045039) >= 1e-9:
        problems.append(("endpoint value", high))
    if not low < high:
        problems.append(("non-monotonicity", low, high))

    # (b) strict decrease of avg_aoai along both grid axes
    vals = {(p.lambda1, p.lambda2): analytic.avg_aoai(p) for p in grid_points}
    for i, a in enumerate(GRID_VALUES[:-1]):
        for b in GRID_VALUES:
            if not vals[(GRID_VALUES[i + 1], b)] < vals[(a, b)]:
                problems.append(("aoai not decreasing in lambda1", a, b))
            if not vals[(b, GRID_VALUES[i + 1])] < vals[(b, a)]:
                problems.append(("aoai not decreasing in lambda2", b, a))

    # (c) symmetry deviation is reported, not asserted against a threshold
    sym = max(abs(vals[(a, b)] - vals[(b, a)]) / vals[(a, b)]
              for a in GRID_VALUES for b in GRID_VALUES)

    ok = not problems and sym == sym and sym < float("inf")
    _line(8, ok, f"aoa rises with lambda1 at lambda2=0.1 ({low:.4f} -> {high:.4f}), "
                 f"aoai strictly decreasing on grid, "
                 f"symmetry max rel deviation {sym:.4f} (reported, no threshold)")
    assert not problems, problems
    assert sym < float("inf")


def test_criterion_9_sweep_byte_determinism(tmp_path):
    args = ["-m", "aoa_lab", "sweep", "--grid", "0.3:0.7:0.2",
            "--methods", "analytic,sim,chain,series",
            "--slots", "100000", "--seed", "11"]
    f1, f2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    for f in (f1, f2):
        proc = subprocess.run([sys.executable, *args, "--out", str(f)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    same = f1.read_bytes() == f2.read_bytes()
    _line(9, same, f"two sweep invocations produced byte-identical CSV "
                   f"({len(f1.read_bytes())} bytes)")
    assert same
