import pytest

from aoa_lab.core import Params, make_params
from aoa_lab.errors import DomainError
from aoa_lab.validation import (METHOD_ORDER, cross_check, default_workers,
                                grid_range, sweep)


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
        aoa = results[1]
        assert aoa.chain is not None and aoa.series is not None
        assert aoa.chain_cap == 44
        assert aoa.chain == pytest.approx(aoa.analytic, rel=1e-6)
        assert aoa.series == pytest.approx(aoa.analytic, rel=1e-9)
        aoi = results[0]
        assert aoi.chain is None and aoi.series is None
        aoai = results[2]
        assert aoai.series is None and aoai.chain is not None

    def test_saturated_corner_every_route_is_one(self):
        for r in cross_check(make_params(1.0, 1.0), slots=10_000, seed=3):
            assert r.analytic == 1.0
            assert r.simulated == 1.0
            for v in (r.chain, r.series):
                assert v is None or v == pytest.approx(1.0, abs=1e-12)
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
            assert r.simulated is None and r.chain is None and r.series is None
            assert r.passed and r.max_rel_disagreement == 0.0

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError):
            cross_check(make_params(0.5, 0.5), slots=10 ** 5, seed=1,
                        methods=("analytic", "bogus"))


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
