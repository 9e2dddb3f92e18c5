import os
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from aoa_lab import engine, validation
from aoa_lab.analytic import averages
from aoa_lab.core import Params, make_params
from aoa_lab.errors import DomainError
from aoa_lab.validation import (MAX_GRID_VALUES, METHOD_ORDER, ROUTE_METRICS,
                                _neighbour_steps, cross_check, default_workers,
                                findings, grid_range, route_rows, sweep)


def by_method(result):
    return {r.method: r for r in result.routes}


class TestGridRange:
    def test_inclusive_endpoints(self):
        assert grid_range("0.1:0.9:0.2") == [0.1, 0.3, 0.5, 0.7, 0.9]

    def test_endpoint_within_float_slack(self):
        assert grid_range("0.1:0.7:0.3") == [0.1, 0.4, 0.7]

    def test_non_divisible_endpoint_dropped(self):
        assert grid_range("0.1:0.8:0.3") == [0.1, 0.4, 0.7]

    def test_single_point(self):
        assert grid_range("0.5:0.5:0.1") == [0.5]

    @pytest.mark.parametrize("bad", ["0.1:0.9", "a:b:c", "0.9:0.1:0.2", "0.1:0.9:0"])
    def test_malformed_specs(self, bad):
        with pytest.raises(DomainError):
            grid_range(bad)

    @pytest.mark.parametrize("bad", ["nan:nan:1", "0.5:inf:1", "0.1:0.9:nan", "-inf:0.5:0.1"])
    def test_non_finite_parts_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            grid_range(bad)

    def test_value_count_bounded_before_building(self):
        # 1e-300 steps within the 1e-9 endpoint slack would never pass B, and
        # -1e308:1e308 overflows the count to inf.
        assert len(grid_range(f"0:{MAX_GRID_VALUES - 1}:1")) == MAX_GRID_VALUES
        for bad in (f"0:{MAX_GRID_VALUES}:1", "0.5:1e9:1", "0.5:0.5:1e-300",
                    "-1e308:1e308:1"):
            with pytest.raises(DomainError, match=f"more than {MAX_GRID_VALUES} values"):
                grid_range(bad)


class TestCrossCheck:
    def test_all_routes_agree_at_symmetric_point(self):
        results = cross_check(make_params(0.5, 0.5), slots=400_000, seed=8)
        assert [r.metric for r in results] == ["aoi", "aoa", "aoai"]
        for r in results:
            assert r.passed, (r.metric, r.max_rel_disagreement)
            assert r.max_rel_disagreement < 0.01
        assert [tuple(by_method(r)) for r in results] == [
            ("analytic", "sim"), ("analytic", "sim", "chain", "series"),
            ("analytic", "sim", "chain")]
        aoa = by_method(results[1])
        assert aoa["chain"].cap == 44
        assert aoa["chain"].value == pytest.approx(aoa["analytic"].value, rel=1e-6)
        assert aoa["series"].value == pytest.approx(aoa["analytic"].value, rel=1e-9)

    def test_saturated_corner_every_route_is_one(self):
        for r in cross_check(make_params(1.0, 1.0), slots=10_000, seed=3):
            routes = by_method(r)
            assert routes["analytic"].value == 1.0
            assert routes["sim"].value == 1.0
            for route in r.routes:
                assert route.value == pytest.approx(1.0, abs=1e-12)
            assert r.passed

    def test_undersampled_run_reports_rather_than_raises(self):
        # seed chosen so the 900-slot estimate visibly misses 1 percent
        results = cross_check(make_params(0.5, 0.5), slots=1000, seed=0)
        assert len(results) == 3
        assert any(not r.passed for r in results)

    def test_analytic_only(self):
        results = cross_check(make_params(0.3, 0.8), slots=10 ** 5, seed=1,
                              methods=("analytic",))
        for r in results:
            assert [route.method for route in r.routes] == ["analytic"]
            assert r.passed and r.max_rel_disagreement == 0.0

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            cross_check(make_params(0.5, 0.5), slots=10 ** 5, seed=1,
                        methods=("analytic", "bogus"))

    @pytest.mark.parametrize("tol_rel", [float("nan"), 0.0, -0.01])
    def test_nonpositive_or_nan_tolerance_rejected(self, tol_rel):
        # `rel >= nan` is never true, so a NaN tolerance would silently
        # switch off the relative clause.
        with pytest.raises(DomainError, match="tol_rel"):
            cross_check(make_params(0.5, 0.5), slots=10 ** 4, seed=1, tol_rel=tol_rel)

    def test_routes_are_the_route_rows(self):
        # The rows `cross_check` scores are exactly what `route_rows` gives
        # for each route at that point, seed and cap included.
        p = make_params(0.3, 0.7)
        results = cross_check(p, slots=20_000, seed=6, tail_eps=1e-7)
        rows = [r for m in METHOD_ORDER
                for r in route_rows(p, m, slots=20_000, seed=6, tail_eps=1e-7)]
        for res in results:
            assert res.routes == tuple(r for r in rows if r.metric == res.metric)
        assert {(r.method, r.metric) for r in rows} == {
            (m, metric) for m, metrics in ROUTE_METRICS.items() for metric in metrics}


class TestRouteRows:
    def test_metrics_kept_in_the_order_asked(self):
        rows = route_rows(make_params(0.5, 0.5), "analytic", ("aoai", "aoi"))
        assert [(r.metric, r.value, r.uncertainty) for r in rows] == [
            ("aoai", pytest.approx(22 / 9), 0.0), ("aoi", 2.0, 0.0)]

    def test_uncovered_metrics_skipped(self):
        p = make_params(0.5, 0.5)
        assert route_rows(p, "series", ("aoi", "aoai")) == []
        assert [r.metric for r in route_rows(p, "chain", cap=50)] == ["aoa", "aoai"]

    def test_only_sim_rows_carry_slots_and_seed_only_chain_rows_a_cap(self):
        # Every route also hands out plain floats, never numpy scalars.
        p = make_params(0.5, 0.5)
        for m in METHOD_ORDER:
            for r in route_rows(p, m, slots=5_000, seed=2, cap=50):
                assert (r.slots, r.seed) == ((5_000, 2) if m == "sim" else (None, None))
                assert r.cap == (50 if m == "chain" else None)
                assert type(r.value) is float and type(r.uncertainty) is float, r

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError, match="method must be one of .* got 'bogus'"):
            route_rows(make_params(0.5, 0.5), "bogus")

    def test_sim_without_slots_rejected(self):
        with pytest.raises(DomainError, match="needs slots and seed, got slots=None, seed=1"):
            route_rows(make_params(0.5, 0.5), "sim", seed=1)

    def test_sim_without_seed_rejected(self):
        with pytest.raises(DomainError, match="needs slots and seed, got slots=5000, seed=None"):
            route_rows(make_params(0.5, 0.5), "sim", slots=5_000)

    @pytest.mark.parametrize("slots", [0, -5])
    def test_sim_with_nonpositive_slots_rejected(self, slots):
        # Before the warmup, min(1000, slots // 10), is taken from it.
        with pytest.raises(DomainError, match=f"^slots must be positive, got {slots}$"):
            route_rows(make_params(0.5, 0.5), "sim", slots=slots, seed=1)

    def test_sim_with_one_slot_rejected(self):
        # One slot would make one batch, with no standard error to report:
        # `run_batched` itself raises the route's error.
        p = make_params(0.3, 0.7)
        message = "^the sim route needs 2 slots or more, for two batch means, got 1$"
        with pytest.raises(DomainError, match=message):
            engine.run_batched(p, 1, 4)
        with pytest.raises(DomainError, match=message):
            route_rows(p, "sim", slots=1, seed=4)


@pytest.mark.parametrize("slots", [2, 500, 20_000])
def test_sim_rows_are_run_batched_with_its_defaults(slots):
    p = make_params(0.3, 0.7)
    rows = route_rows(p, "sim", slots=slots, seed=4)
    _, means, stderrs = engine.run_batched(p, slots, 4)
    assert [r.value for r in rows] == means.tolist()
    assert [r.uncertainty for r in rows] == stderrs.tolist()


class TestSweep:
    def test_nonmonotone_witnesses_on_scarce_energy_row(self):
        # The actuation age falls from lambda1 = 0.1 to 0.3, then rises on
        # every neighbour step of the row.
        _, witnesses, _, _ = findings([Params(a / 10, 0.1) for a in range(1, 10)])
        assert witnesses == tuple(
            ("lambda1", 0.1, a / 10, (a + 1) / 10) for a in range(3, 9))

    def test_witnesses_on_the_acceptance_grid_along_both_axes(self):
        g = grid_range("0.1:0.9:0.2")
        _, witnesses, _, _ = findings([Params(a, b) for a in g for b in g])
        assert witnesses == (
            ("lambda1", 0.1, 0.3, 0.5), ("lambda1", 0.1, 0.5, 0.7),
            ("lambda1", 0.1, 0.7, 0.9), ("lambda1", 0.3, 0.7, 0.9),
            ("lambda2", 0.1, 0.3, 0.5), ("lambda2", 0.1, 0.5, 0.7),
            ("lambda2", 0.1, 0.7, 0.9), ("lambda2", 0.3, 0.7, 0.9))
        # Scarce data: more energy makes actions older.
        low, high = (averages(Params(0.1, b)).aoa_bar for b in (0.3, 0.5))
        assert (low, high) == (pytest.approx(9.8183, abs=1e-4),
                               pytest.approx(9.93879, abs=1e-5))

    def test_witness_count_is_linear_in_the_grid_points(self):
        g = grid_range("0.01:1:0.01")
        n = len(g)
        _, witnesses, monotone, _ = findings([Params(a, b) for a in g for b in g])
        along = [w[0] for w in witnesses]
        assert (along.count("lambda1"), along.count("lambda2")) == (2715, 2259)
        assert len(witnesses) == 4974 <= 2 * n * (n - 1)
        assert monotone

    def test_steps_join_only_consecutive_points_on_one_line(self):
        keys = [(0.1, 0.1), (0.5, 0.1), (0.9, 0.1), (0.5, 0.5), (0.9, 0.9)]
        assert [step for step, _, _ in _neighbour_steps(keys)] == [
            ("lambda1", 0.1, 0.1, 0.5), ("lambda1", 0.1, 0.5, 0.9),
            ("lambda2", 0.5, 0.1, 0.5), ("lambda2", 0.9, 0.1, 0.9)]

    def test_full_grid_findings(self):
        points = [Params(a / 10, b / 10) for a in range(1, 10) for b in range(1, 10)]
        sym_dev, _, monotone, violations = findings(points)
        assert monotone
        assert sym_dev > 0.0
        assert violations  # aoi/aoa ordering genuinely fails off-diagonal
        assert all("aoai" not in msg for _, _, msg in violations)
        # Analytic-only rows have nothing to disagree with.
        assert sweep(points, methods=("analytic",), slots=10 ** 5, seed=0).all_passed

    def test_point_order_does_not_matter(self):
        g = grid_range("0.1:0.9:0.2")
        points = [Params(a, b) for a in g for b in g]
        shuffled = points[:]
        random.Random(3).shuffle(shuffled)
        assert shuffled != points
        assert findings(shuffled) == findings(points)

    def test_deterministic(self):
        # The same report in one process and from a two-worker pool.  The
        # AoAI chain at (0.1, 0.1) has 26 564 states.
        points = [Params(0.1, 0.1), Params(0.4, 0.6), Params(0.6, 0.4)]
        kw = dict(methods=METHOD_ORDER, slots=50_000, seed=5)
        assert sweep(points, max_workers=1, **kw) == sweep(points, max_workers=2, **kw)

    def test_rows_sorted_by_point(self):
        points = [Params(0.7, 0.2), Params(0.2, 0.7)]
        rep = sweep(points, methods=("analytic",), slots=10 ** 5, seed=0)
        order = [(r.params.lambda1, r.params.lambda2) for r in rep.rows]
        assert order == [(0.2, 0.7)] * 3 + [(0.7, 0.2)] * 3

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            sweep([], methods=("analytic",), slots=10 ** 5, seed=0)


class TestWorkers:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("AOA_LAB_THREADS", "3")
        assert default_workers() == 3

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("AOA_LAB_THREADS", "lots")
        with pytest.raises(DomainError):
            default_workers()

    def test_env_absent_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("AOA_LAB_THREADS", raising=False)
        assert default_workers() >= 1

    def test_env_absent_counts_only_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv("AOA_LAB_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_workers() == 1

    @staticmethod
    def _pool_sizes(monkeypatch, threads, max_workers, n_points, methods):
        """The sizes of the pools `sweep` starts, whose report is the serial one.

        A thread pool stands in for the process pool and records its size.
        """
        sizes = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(validation, "ProcessPoolExecutor", Pool)
        monkeypatch.setenv("AOA_LAB_THREADS", threads)
        points = [Params(0.5 + 0.4 * (i // 2), 0.5 + 0.4 * (i % 2)) for i in range(n_points)]
        kw = dict(methods=methods, slots=300, seed=0)
        assert sweep(points, max_workers=max_workers, **kw) == sweep(points, max_workers=1, **kw)
        return sizes

    @pytest.mark.parametrize("threads,max_workers,n_points,pools", [
        ("8", None, 4, [4]), ("2", None, 4, [2]), ("8", 8, 4, [4]), ("8", None, 1, [])])
    def test_pool_has_at_most_one_worker_per_point(self, monkeypatch, threads, max_workers,
                                                   n_points, pools):
        # A forked pool starts all its workers at the first submit, so a pool
        # larger than the grid starts workers that get no point.
        assert self._pool_sizes(monkeypatch, threads, max_workers, n_points, ("sim",)) == pools

    @pytest.mark.parametrize("methods", [("analytic",), ("analytic", "series")])
    def test_closed_form_grid_starts_no_pool(self, monkeypatch, methods):
        # A closed-form point takes microseconds, less than sending it to a worker.
        assert self._pool_sizes(monkeypatch, "8", None, 4, methods) == []
