import pytest

from aoa_lab.core import Params, make_params
from aoa_lab.errors import DomainError
from aoa_lab.validation import (METHOD_ORDER, ROUTE_METRICS, cross_check,
                                default_workers, grid_range, route_rows, sweep)


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
        p = make_params(0.5, 0.5)
        for m in METHOD_ORDER:
            for r in route_rows(p, m, slots=5_000, seed=2, cap=50):
                assert (r.slots, r.seed) == ((5_000, 2) if m == "sim" else (None, None))
                assert r.cap == (50 if m == "chain" else None)


class TestSweep:
    def test_nonmonotone_witnesses_on_scarce_energy_row(self):
        points = [Params(a / 10, 0.1) for a in range(1, 10)]
        rep = sweep(points, methods=("analytic",), slots=10 ** 5, seed=0)
        assert rep.aoa_nonmonotone_witnesses
        assert (0.1, 0.2, 0.9) in rep.aoa_nonmonotone_witnesses

    def test_full_grid_findings(self):
        points = [Params(a / 10, b / 10) for a in range(1, 10) for b in range(1, 10)]
        rep = sweep(points, methods=("analytic",), slots=10 ** 5, seed=0)
        assert rep.aoai_monotone
        assert rep.symmetry_max_rel_dev > 0.0
        assert rep.ordering_violations  # aoi/aoa ordering genuinely fails off-diagonal
        assert all("aoai" not in msg for _, _, msg in rep.ordering_violations)
        assert rep.all_passed  # analytic-only rows have nothing to disagree with

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
