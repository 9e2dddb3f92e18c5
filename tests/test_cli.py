import json

import pytest

from aoa_lab.cli import main

GOLDEN_TRACE_EVENTS = "t,data,energy\n1,0,0\n2,1,0\n3,0,0\n4,0,1\n5,0,0\n6,1,0\n7,0,0\n"
GOLDEN_TRACE_OUTPUT = """\
t,data,energy,cache,battery,actuated,aoi,aoa,aoai
1,0,0,0,0,0,2,2,2
2,1,0,1,0,0,1,3,3
3,0,0,1,0,0,2,4,4
4,0,1,0,0,1,3,1,3
5,0,0,0,0,0,4,2,4
6,1,0,1,0,0,1,3,5
7,0,0,1,0,0,2,4,6
"""


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def csv_rows(out):
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestAnalytic:
    def test_three_metrics(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--lambda1", "0.5", "--lambda2", "0.5",
                               "--metrics", "aoi,aoa,aoai")
        assert code == 0
        rows = csv_rows(out)
        assert [r["metric"] for r in rows] == ["aoi", "aoa", "aoai"]
        assert [r["value"] for r in rows] == ["2", "2.26666667", "2.44444444"]
        assert all(r["uncertainty"] == "0" for r in rows)

    def test_saturated_corner(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--lambda1", "1", "--lambda2", "1")
        assert code == 0
        assert [r["value"] for r in csv_rows(out)] == ["1", "1", "1"]

    def test_zero_lambda_exit_two_naming_field(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--lambda1", "0", "--lambda2", "0.5")
        assert code == 2
        assert "lambda1" in err

    def test_below_floor_rejected(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--lambda1", "0.5", "--lambda2", "0.005")
        assert code == 2
        assert "lambda2" in err

    def test_bad_metric_name(self, capsys):
        code, _, _ = run_cli(capsys, "analytic", "--lambda1", "0.5", "--lambda2", "0.5",
                             "--metrics", "peak")
        assert code == 2

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--lambda1", "0.5", "--lambda2", "0.5",
                               "--json")
        assert code == 0
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert [o["metric"] for o in objs] == ["aoi", "aoa", "aoai"]
        assert objs[0]["value"] == 2.0
        assert set(objs[0]) == {"lambda1", "lambda2", "method", "metric", "value",
                                "uncertainty", "slots", "seed", "cap"}


class TestSimulate:
    def test_harvest_limited_actuation_age(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--lambda1", "1", "--lambda2", "0.5",
                               "--slots", "1000000", "--seed", "7")
        assert code == 0
        rows = {r["metric"]: r for r in csv_rows(out)}
        assert float(rows["aoa"]["value"]) == pytest.approx(2.0, rel=0.01)
        assert rows["aoa"]["slots"] == "1000000" and rows["aoa"]["seed"] == "7"
        assert float(rows["aoa"]["uncertainty"]) > 0

    def test_slots_not_above_warmup_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "--lambda1", "0.5", "--lambda2", "0.5",
                             "--slots", "100", "--warmup", "100")
        assert code == 2

    def test_short_run_uses_the_validate_warmup_rule(self, capsys):
        # Without --warmup a 500-slot run warms up for 50 slots, as `validate`
        # would, instead of failing on a 1000-slot warmup.
        code, out, _ = run_cli(capsys, "simulate", "--lambda1", "0.5", "--lambda2", "0.5",
                               "--slots", "500")
        assert code == 0
        assert [r["metric"] for r in csv_rows(out)] == ["aoi", "aoa", "aoai"]

    def test_deterministic_per_seed(self, capsys):
        args = ("simulate", "--lambda1", "0.5", "--lambda2", "0.5",
                "--slots", "50000", "--seed", "5")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestChain:
    def test_cap_mode(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--lambda1", "0.5", "--lambda2", "0.5",
                               "--metric", "aoai", "--cap", "200")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["value"]) == pytest.approx(22 / 9, rel=1e-6)
        assert row["cap"] == "200"
        assert row["slots"] == "" and row["seed"] == ""

    def test_tail_eps_mode(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--lambda1", "0.5", "--lambda2", "0.5",
                               "--metric", "aoa", "--tail-eps", "1e-10")
        assert code == 0
        row = csv_rows(out)[0]
        assert float(row["value"]) == pytest.approx(34 / 15, rel=1e-6)
        assert float(row["uncertainty"]) < 1e-6
        assert row["cap"] == "44"

    def test_loose_tail_eps_at_small_rate(self, capsys):
        # r**cap < tail_eps alone would give cap 325 here, whose a-priori
        # tail mass 1.15e-6 is above the 1e-6 that `mean_age` accepts.
        code, out, _ = run_cli(capsys, "chain", "--lambda1", "0.05", "--lambda2", "0.5",
                               "--metric", "aoa", "--tail-eps", "1e-7")
        assert code == 0
        row = csv_rows(out)[0]
        assert row["cap"] == "328"
        assert float(row["value"]) == pytest.approx(19.9598622, rel=1e-6)

    def test_both_cap_flags_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "chain", "--lambda1", "0.5", "--lambda2", "0.5",
                             "--metric", "aoa", "--cap", "200", "--tail-eps", "1e-10")
        assert code == 2

    def test_neither_cap_flag_exit_two(self, capsys):
        code, _, _ = run_cli(capsys, "chain", "--lambda1", "0.5", "--lambda2", "0.5",
                             "--metric", "aoa")
        assert code == 2

    def test_undersized_cap_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "chain", "--lambda1", "0.1", "--lambda2", "0.1",
                               "--metric", "aoa", "--cap", "10")
        assert code == 3
        assert "tail mass" in err


class TestTrace:
    def test_golden_staircase(self, capsys, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text(GOLDEN_TRACE_EVENTS)
        code, out, _ = run_cli(capsys, "trace", "--events", str(f))
        assert code == 0
        assert out == GOLDEN_TRACE_OUTPUT

    def test_json_mode(self, capsys, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text(GOLDEN_TRACE_EVENTS)
        code, out, _ = run_cli(capsys, "trace", "--events", str(f), "--json")
        assert code == 0
        objs = [json.loads(line) for line in out.strip().splitlines()]
        assert [o["aoai"] for o in objs] == [2, 3, 4, 3, 4, 5, 6]
        assert [o["actuated"] for o in objs] == [0, 0, 0, 1, 0, 0, 0]

    def test_empty_file_exit_two(self, capsys, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("")
        code, _, err = run_cli(capsys, "trace", "--events", str(f))
        assert code == 2
        assert "line 1" in err

    def test_bad_value_exit_two_names_line(self, capsys, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("t,data,energy\n1,0,0\n2,2,0\n")
        code, _, err = run_cli(capsys, "trace", "--events", str(f))
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "trace", "--events", str(tmp_path / "nope.csv"))
        assert code == 2


class TestSweep:
    def test_analytic_grid_row_count(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "--grid", "0.1:0.9:0.2",
                             "--methods", "analytic", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == ("lambda1,lambda2,method,metric,value,uncertainty,"
                            "slots,seed,cap")
        assert len(lines) == 1 + 25 * 3

    def test_byte_identical_reruns(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--grid", "0.4:0.6:0.2", "--methods",
                "analytic,sim,chain,series", "--slots", "50000", "--seed", "3")
        assert run_cli(capsys, *args, "--out", str(f1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_methods_ordered_canonically(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "--grid", "0.5:0.5:0.1",
                             "--methods", "series,analytic", "--out", str(out_file))
        assert code == 0
        rows = csv_rows(out_file.read_text())
        assert [(r["method"], r["metric"]) for r in rows] == [
            ("analytic", "aoi"), ("analytic", "aoa"), ("analytic", "aoai"),
            ("series", "aoa")]

    def test_two_axis_grid(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "--grid", "0.2:0.4:0.2,0.5:0.5:0.1",
                             "--methods", "analytic", "--out", str(out_file))
        assert code == 0
        rows = csv_rows(out_file.read_text())
        assert {(r["lambda1"], r["lambda2"]) for r in rows} == {
            ("0.2", "0.5"), ("0.4", "0.5")}

    def test_bad_grid_exit_two(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "sweep", "--grid", "0.9:0.1:0.2",
                             "--methods", "analytic", "--out", str(tmp_path / "s.csv"))
        assert code == 2
        assert not (tmp_path / "s.csv").exists()


class TestValidate:
    def test_passing_grid(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--grid", "0.5:0.7:0.2",
                               "--slots", "400000", "--seed", "8", "--tol-rel", "0.01")
        assert code == 0
        assert "aoai_monotone=true" in out
        assert "symmetry_max_rel_dev=" in out
        assert out.count("PASS") == 4 * 3

    def test_undersampled_grid_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--grid", "0.5:0.5:0.1",
                               "--slots", "1000", "--seed", "0", "--tol-rel", "0.01")
        assert code == 1
        assert "FAIL" in out

    def test_ordering_violations_reported(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--grid", "0.1:0.3:0.2",
                               "--slots", "200000", "--seed", "21")
        assert "ordering_violations=" in out
        assert "aoi_bar" in out  # the (0.1, 0.3) violation is visible
