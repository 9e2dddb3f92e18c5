import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from aoa_lab import cli, engine, validation
from aoa_lab.chains import choose_cap
from aoa_lab.cli import CSV_HEADER, TRACE_FIELDS, main
from aoa_lab.core import Params
from aoa_lab.engine import read_events_csv, run_trace

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

# Stdout of four commands, frozen byte for byte: a change to any route's
# numbers or to the output format shows here.
GOLDEN_STDOUT = [
    (("analytic", "--lambda1", "0.2", "--lambda2", "0.4"), """\
lambda1,lambda2,method,metric,value,uncertainty,slots,seed,cap
0.2,0.4,analytic,aoi,5,0,,,
0.2,0.4,analytic,aoa,4.95636716,0,,,
0.2,0.4,analytic,aoai,5.21592661,0,,,
"""),
    (("simulate", "--lambda1", "0.3", "--lambda2", "0.7", "--slots", "100000",
      "--seed", "3"), """\
lambda1,lambda2,method,metric,value,uncertainty,slots,seed,cap
0.3,0.7,sim,aoi,3.36178788,0.0229570932,100000,3,
0.3,0.7,sim,aoa,3.34920202,0.0224010468,100000,3,
0.3,0.7,sim,aoai,3.39315152,0.0226917338,100000,3,
"""),
    (("chain", "--metric", "aoai", "--lambda1", "0.5", "--lambda2", "0.5",
      "--tail-eps", "1e-10", "--json"),
     '{"lambda1": 0.5, "lambda2": 0.5, "method": "chain", "metric": "aoai", '
     '"value": 2.444444444439969, "uncertainty": 6.034427278845161e-12, '
     '"slots": null, "seed": null, "cap": 44}\n'),
    (("validate", "--grid", "0.5:0.9:0.4", "--slots", "20000", "--seed", "1"), """\
PASS lambda1=0.5 lambda2=0.5 metric=aoi max_rel_disagreement=0.00713157895
PASS lambda1=0.5 lambda2=0.5 metric=aoa max_rel_disagreement=0.00236068111
PASS lambda1=0.5 lambda2=0.5 metric=aoai max_rel_disagreement=0.000633971292
PASS lambda1=0.5 lambda2=0.9 metric=aoi max_rel_disagreement=0.00382739999
PASS lambda1=0.5 lambda2=0.9 metric=aoa max_rel_disagreement=0.00366411251
PASS lambda1=0.5 lambda2=0.9 metric=aoai max_rel_disagreement=0.00398349198
PASS lambda1=0.9 lambda2=0.5 metric=aoi max_rel_disagreement=0.00180526316
PASS lambda1=0.9 lambda2=0.5 metric=aoa max_rel_disagreement=0.0073251602
PASS lambda1=0.9 lambda2=0.5 metric=aoai max_rel_disagreement=0.00758088254
PASS lambda1=0.9 lambda2=0.9 metric=aoi max_rel_disagreement=0.00179152153
PASS lambda1=0.9 lambda2=0.9 metric=aoa max_rel_disagreement=0.001993202
PASS lambda1=0.9 lambda2=0.9 metric=aoai max_rel_disagreement=0.00276253915
symmetry_max_rel_dev=0.0110455842
aoa_nonmonotone_witnesses=none
aoai_monotone=true
ordering_violations=none
"""),
]


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

    def test_negative_seed_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--lambda1", "0.5", "--lambda2", "0.5",
                                 "--slots", "1000", "--seed", "-1")
        assert code == 2
        assert out == "" and err == "error: seed must be nonnegative, got -1\n"

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


@pytest.mark.parametrize("args", [
    ("analytic", "--lambda1", "0.5", "--lambda2", "0.5"),
    ("simulate", "--lambda1", "0.5", "--lambda2", "0.5", "--slots", "2000"),
    ("chain", "--lambda1", "0.5", "--lambda2", "0.5", "--metric", "aoa", "--cap", "40"),
])
def test_json_keys_are_the_csv_header(capsys, args):
    code, out, _ = run_cli(capsys, *args, "--json")
    assert code == 0
    for line in out.strip().splitlines():
        assert list(json.loads(line)) == CSV_HEADER.split(",")


@pytest.mark.parametrize("args,expected", GOLDEN_STDOUT,
                         ids=[args[0] for args, _ in GOLDEN_STDOUT])
def test_golden_stdout(capsys, args, expected):
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert out == expected


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

    @staticmethod
    def _reference_trace(tmp_path, flags):
        """An events file of `flags`, (data, energy) per slot, and its rows in
        `TRACE_FIELDS` order, as `run_trace`, the reference replay, gives them."""
        f = tmp_path / "ev.csv"
        f.write_text("t,data,energy\n" + "".join(
            f"{t},{int(d)},{int(e)}\n" for t, (d, e) in enumerate(flags, start=1)))
        rows = [(s.slot, int(d), int(e), s.system.cache, s.system.battery, int(act),
                 s.ages.aoi, s.ages.aoa, s.ages.aoai)
                for (d, e), (s, act) in zip(flags, run_trace(read_events_csv(f)))]
        return f, rows

    @classmethod
    def _random_trace(cls, tmp_path):
        """A 300-slot events file and its reference rows."""
        return cls._reference_trace(
            tmp_path, np.random.default_rng(8).random((300, 2)) < (0.3, 0.6))

    def test_json_rows_match_run_trace(self, capsys, tmp_path):
        # The command replays the events on the simulator's scan; `run_trace`
        # is the reference replay it must agree with.
        f, rows = self._random_trace(tmp_path)
        code, out, _ = run_cli(capsys, "trace", "--events", str(f), "--json")
        assert code == 0
        expected = [dict(zip(TRACE_FIELDS, row)) for row in rows]
        assert [json.loads(line) for line in out.splitlines()] == expected

    @pytest.mark.parametrize("piece", [8, 64])
    @pytest.mark.parametrize("rates", [(0.3, 0.6), (0.9, 0.1), (0, 0), (1, 0), (0, 1), (1, 1)],
                             ids=["random", "data-rich", "none", "data-only", "energy-only",
                                  "both"])
    def test_output_across_piece_edges_matches_run_trace(
            self, capsys, tmp_path, monkeypatch, piece, rates):
        # Small pieces put many edges, and every carried age and occupancy,
        # inside a short file; 203 slots end mid-piece.
        monkeypatch.setattr(engine, "_TRACE_PIECE", piece)
        flags = np.random.default_rng(piece).random((203, 2)) < rates
        f, rows = self._reference_trace(tmp_path, flags)
        code, out, _ = run_cli(capsys, "trace", "--events", str(f))
        assert code == 0
        assert out == "".join(line + "\n" for line in
                              [",".join(TRACE_FIELDS)] + [",".join(map(str, r)) for r in rows])
        code, out, _ = run_cli(capsys, "trace", "--events", str(f), "--json")
        assert code == 0
        assert out == "".join(json.dumps(dict(zip(TRACE_FIELDS, r))) + "\n" for r in rows)

    def test_trace_does_not_step_slot_by_slot(self, capsys, tmp_path, monkeypatch):
        # `engine.step` is the reference only; the command runs the scan.
        def step(*args):
            raise AssertionError("trace called engine.step")
        monkeypatch.setattr(engine, "step", step)
        f = tmp_path / "ev.csv"
        f.write_text(GOLDEN_TRACE_EVENTS)
        code, out, _ = run_cli(capsys, "trace", "--events", str(f))
        assert code == 0
        assert out == GOLDEN_TRACE_OUTPUT

    def test_memory_beyond_the_parse_does_not_grow_with_the_file(self, tmp_path):
        # The replay holds two flag arrays of one byte a slot, and one piece
        # of `_TRACE_PIECE` slots, scanned and printed, at a time
        # (tracemalloc counts numpy's buffers), so beyond what
        # parsing the file takes, its peak stays near 2 MiB whether the file
        # spans 3 pieces or 15.  The scan's block table, built once
        # per process, is built before the measurement.
        engine._block_table()
        rng = np.random.default_rng(5)
        for n in (10_000, 60_000):
            f = tmp_path / f"ev{n}.csv"
            flags = rng.random((n, 2)) < (0.3, 0.6)
            f.write_text("t,data,energy\n" + "".join(
                f"{t},{int(d)},{int(e)}\n" for t, (d, e) in enumerate(flags, start=1)))
            peaks = []
            for call in (lambda: read_events_csv(f),
                         lambda: main(["trace", "--events", str(f), "--json"])):
                with open(os.devnull, "w") as devnull, redirect_stdout(devnull):
                    tracemalloc.start()
                    try:
                        call()
                        peaks.append(tracemalloc.get_traced_memory()[1])
                    finally:
                        tracemalloc.stop()
            assert peaks[1] - peaks[0] <= 8 * 2 ** 20, n

    def test_closed_pipe_exits_141_quietly(self, tmp_path):
        # A reader that stops early, as `head -1` does, closes the pipe while
        # `trace` still has most of its 430 kB of rows to print.
        f = tmp_path / "ev.csv"
        flags = np.random.default_rng(3).random((20_000, 2)) < (0.3, 0.6)
        f.write_text("t,data,energy\n" + "".join(
            f"{t},{int(d)},{int(e)}\n" for t, (d, e) in enumerate(flags, start=1)))
        src = str(Path(cli.__file__).resolve().parents[1])
        with open(tmp_path / "err", "w+b") as err:
            proc = subprocess.Popen([sys.executable, "-m", "aoa_lab", "trace", "--events", str(f)],
                                    stdout=subprocess.PIPE, stderr=err,
                                    env=dict(os.environ, PYTHONPATH=src))
            try:
                assert proc.stdout.readline() == (",".join(TRACE_FIELDS) + "\n").encode()
                proc.stdout.close()
                assert proc.wait(timeout=60) == 141
            finally:
                proc.kill()
            err.seek(0)
            assert err.read() == b""

    def test_json_lines_are_json_dumps_of_each_row(self, capsys, tmp_path):
        # Each line comes from one fixed template; its bytes are those of
        # `json.dumps` of the row's dict.
        f, rows = self._random_trace(tmp_path)
        code, out, _ = run_cli(capsys, "trace", "--events", str(f), "--json")
        assert code == 0
        assert out == "".join(json.dumps(dict(zip(TRACE_FIELDS, row))) + "\n" for row in rows)

    def test_empty_file_exit_two(self, capsys, tmp_path):
        f = tmp_path / "ev.csv"
        f.write_text("")
        code, _, err = run_cli(capsys, "trace", "--events", str(f))
        assert code == 2
        assert "line 1" in err

    def test_bad_value_exit_two_names_line(self, capsys, tmp_path):
        # The file is checked whole before any row prints: a bad line after
        # good ones leaves stdout empty.
        f = tmp_path / "ev.csv"
        f.write_text("t,data,energy\n1,0,0\n2,2,0\n")
        code, out, err = run_cli(capsys, "trace", "--events", str(f))
        assert code == 2
        assert out == ""
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

    def test_sim_and_chain_rows_carry_point_seed_and_cap(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        code, _, _ = run_cli(capsys, "sweep", "--grid", "0.4:0.6:0.2,0.5:0.5:0.1",
                             "--methods", "chain,sim", "--slots", "20000", "--seed", "7",
                             "--tail-eps", "1e-7", "--out", str(out_file))
        assert code == 0
        rows = csv_rows(out_file.read_text())
        # No analytic rows; per point (in sorted order) sim before chain.
        assert [(r["lambda1"], r["method"], r["metric"]) for r in rows] == [
            (a, m, metric) for a in ("0.4", "0.6")
            for m, metrics in (("sim", ("aoi", "aoa", "aoai")), ("chain", ("aoa", "aoai")))
            for metric in metrics]
        for r in rows:
            index = ("0.4", "0.6").index(r["lambda1"])
            if r["method"] == "sim":
                assert (r["slots"], r["seed"], r["cap"]) == ("20000", str(7 + index), "")
            else:
                cap = choose_cap(Params(float(r["lambda1"]), 0.5), 1e-7)
                assert (r["slots"], r["seed"], r["cap"]) == ("", "", str(cap))

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

    def test_witness_line_prints_steps_on_both_axes(self, capsys, monkeypatch):
        # Only the closed form feeds the findings, so the analytic route is
        # enough to print them.
        real = validation.sweep
        monkeypatch.setattr(validation, "sweep", lambda points, methods, *a, **k:
                            real(points, ("analytic",), *a, **k))
        code, out, _ = run_cli(capsys, "validate", "--grid", "0.1:0.9:0.4",
                               "--slots", "1000", "--seed", "0")
        assert code == 0
        assert ("\naoa_nonmonotone_witnesses=(lambda1,0.1,0.5,0.9);(lambda2,0.1,0.5,0.9)\n"
                in out)

    def test_undersampled_grid_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--grid", "0.5:0.5:0.1",
                               "--slots", "1000", "--seed", "0", "--tol-rel", "0.01")
        assert code == 1
        assert "FAIL" in out

    def test_negative_seed_exit_two(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--grid", "0.5:0.7:0.2",
                                 "--slots", "1000", "--seed", "-3")
        assert code == 2
        assert out == "" and "seed must be nonnegative" in err

    @pytest.mark.parametrize("tol", ["nan", "0", "-0.5"])
    def test_tolerance_not_positive_exit_two(self, capsys, tol):
        code, out, err = run_cli(capsys, "validate", "--grid", "0.5:0.5:0.1",
                                 "--slots", "1000", "--tol-rel", tol)
        assert code == 2
        assert out == "" and "tol_rel must be positive" in err

    def test_ordering_violations_reported(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--grid", "0.1:0.3:0.2",
                               "--slots", "200000", "--seed", "21")
        assert "ordering_violations=" in out
        assert "aoi_bar" in out  # the (0.1, 0.3) violation is visible


@pytest.mark.parametrize("grid", ["nan:nan:1", "0.5:inf:1", "0.5:1e9:1"])
@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_runaway_grid_exit_two_at_once(capsys, tmp_path, command, grid):
    # Each range is rejected before any grid value is built.
    out_file = tmp_path / "s.csv"
    extra = ("--out", str(out_file)) if command == "sweep" else ()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "--grid", grid, *extra)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.startswith("error: grid range")
    assert not out_file.exists()
