import concurrent.futures
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from aoa_lab import analytic, chains, cli, engine, validation
from aoa_lab.chains import choose_cap
from aoa_lab.cli import CSV_HEADER, TRACE_FIELDS, main
from aoa_lab.core import Params, SlotEvents
from aoa_lab.engine import read_events_csv, run_trace
from aoa_lab.errors import CapError, ConvergenceError, NumericalError, TruncationError

# Most slots a sim run takes: above it the int64 batch edges would wrap.
MAX_SLOTS = (2**63 - 1) // engine.N_BATCHES

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

# Exit code and stdout of five commands, frozen byte for byte: a change to
# any route's numbers or to the output format shows here.  The 5000-slot run
# warms up for slots // 10 slots, the 100 000-slot one for 1000.  `validate`
# exits 1: at 20 000 slots the sim's 3 standard errors at lambda1 = 0.5 are
# 3% of the means, so the 1% `--tol-rel` clause fails four rows whose routes
# agree within that noise.  Every point draws the same flags, so the aoi rows,
# which read only the data flags, repeat along each lambda1 line.
GOLDEN_STDOUT = [
    (("analytic", "--lambda1", "0.2", "--lambda2", "0.4"), 0, """\
lambda1,lambda2,method,metric,value,uncertainty,slots,seed,cap
0.2,0.4,analytic,aoi,5,0,,,
0.2,0.4,analytic,aoa,4.95636716,0,,,
0.2,0.4,analytic,aoai,5.21592661,0,,,
"""),
    (("simulate", "--lambda1", "0.3", "--lambda2", "0.7", "--slots", "100000",
      "--seed", "3"), 0, """\
lambda1,lambda2,method,metric,value,uncertainty,slots,seed,cap
0.3,0.7,sim,aoi,3.33785859,0.0250572027,100000,3,
0.3,0.7,sim,aoa,3.32307071,0.0247639264,100000,3,
0.3,0.7,sim,aoai,3.36787879,0.0247738492,100000,3,
"""),
    (("chain", "--metric", "aoai", "--lambda1", "0.5", "--lambda2", "0.5",
      "--tail-eps", "1e-10", "--json"), 0,
     '{"lambda1": 0.5, "lambda2": 0.5, "method": "chain", "metric": "aoai", '
     '"value": 2.444444444439969, "uncertainty": 6.034427278845161e-12, '
     '"slots": null, "seed": null, "cap": 44}\n'),
    (("validate", "--grid", "0.5:0.9:0.4", "--slots", "20000", "--seed", "1"), 1, """\
FAIL lambda1=0.5 lambda2=0.5 metric=aoi max_rel_disagreement=0.0103684211
PASS lambda1=0.5 lambda2=0.5 metric=aoa max_rel_disagreement=0.0098374613
FAIL lambda1=0.5 lambda2=0.5 metric=aoai max_rel_disagreement=0.0100215311
FAIL lambda1=0.5 lambda2=0.9 metric=aoi max_rel_disagreement=0.0103684211
PASS lambda1=0.5 lambda2=0.9 metric=aoa max_rel_disagreement=0.00957957371
FAIL lambda1=0.5 lambda2=0.9 metric=aoai max_rel_disagreement=0.0101927714
PASS lambda1=0.9 lambda2=0.5 metric=aoi max_rel_disagreement=0.000715789474
PASS lambda1=0.9 lambda2=0.5 metric=aoa max_rel_disagreement=0.00527383245
PASS lambda1=0.9 lambda2=0.5 metric=aoai max_rel_disagreement=0.0055680619
PASS lambda1=0.9 lambda2=0.9 metric=aoi max_rel_disagreement=0.000715789474
PASS lambda1=0.9 lambda2=0.9 metric=aoa max_rel_disagreement=0.00131440895
PASS lambda1=0.9 lambda2=0.9 metric=aoai max_rel_disagreement=0.00132209504
symmetry_max_rel_dev=0.0110455842
aoa_nonmonotone_witnesses=none
aoai_monotone=true
ordering_violations=none
"""),
    (("simulate", "--lambda1", "0.3", "--lambda2", "0.7", "--slots", "5000",
      "--seed", "3"), 0, """\
lambda1,lambda2,method,metric,value,uncertainty,slots,seed,cap
0.3,0.7,sim,aoi,3.25155556,0.0945679413,5000,3,
0.3,0.7,sim,aoa,3.25355556,0.0942541461,5000,3,
0.3,0.7,sim,aoai,3.28355556,0.094188011,5000,3,
"""),
]


def run_cli(capsys, *args):
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def assert_same_lines(out, lines):
    """`out` is `lines`, each ended by a newline.  A mismatch is reported at
    its first line: pytest's diff of two texts thousands of lines long runs
    for minutes."""
    got = out.splitlines(keepends=True)
    for lineno, (a, b) in enumerate(zip(got, lines), start=1):
        assert a == b + "\n", f"line {lineno}"
    assert len(got) == len(lines)


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

    def test_repeated_metrics_print_once(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--lambda1", "0.5", "--lambda2", "0.5",
                               "--metrics", "aoai,aoi,aoai,aoi")
        assert code == 0
        assert [r["metric"] for r in csv_rows(out)] == ["aoai", "aoi"]

    def test_saturated_corner(self, capsys):
        code, out, _ = run_cli(capsys, "analytic", "--lambda1", "1", "--lambda2", "1")
        assert code == 0
        assert [r["value"] for r in csv_rows(out)] == ["1", "1", "1"]

    def test_zero_lambda_exit_two_naming_field(self, capsys):
        code, _, err = run_cli(capsys, "analytic", "--lambda1", "0", "--lambda2", "0.5")
        assert code == 2
        assert "lambda1" in err

    @pytest.mark.parametrize("rate", ["0.005", repr(math.nextafter(0.01, 0))])
    def test_below_floor_rejected(self, capsys, rate):
        # The message is the one `Params` raises.
        code, out, err = run_cli(capsys, "analytic", "--lambda1", "0.5", "--lambda2", rate)
        assert (code, out) == (2, "")
        assert err == f"error: lambda2 must be in [0.01, 1], got {float(rate)}\n"

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

    @pytest.mark.parametrize("command,slots", [("simulate", "-5"), ("simulate", "0"),
                                               ("validate", "-5")])
    def test_nonpositive_slots_exit_two(self, capsys, command, slots):
        # The error names the slots given, not a warmup derived from them.
        where = (["--lambda1", "0.5", "--lambda2", "0.5"] if command == "simulate"
                 else ["--grid", "0.5:0.5:0.1"])
        code, out, err = run_cli(capsys, command, *where, "--slots", slots)
        assert code == 2
        assert out == "" and err == f"error: slots must be positive, got {slots}\n"

    @pytest.mark.parametrize("slots", [10**18, 10**19])
    def test_too_many_slots_exit_two(self, capsys, slots):
        # 10**19 overflowed the int64 batch edges; 10**18 wrapped them silently.
        code, out, err = run_cli(capsys, "simulate", "--lambda1", "0.5", "--lambda2", "0.5",
                                 "--slots", str(slots))
        assert code == 2
        assert out == "" and err == f"error: slots must be at most {MAX_SLOTS}, got {slots}\n"

    @pytest.mark.parametrize("command", ["simulate", "validate", "sweep"])
    def test_one_slot_exit_two(self, capsys, tmp_path, command):
        # One slot is one batch: no standard error to report.
        where = {"simulate": ["--lambda1", "0.5", "--lambda2", "0.5"],
                 "validate": ["--grid", "0.5:0.5:0.1"],
                 "sweep": ["--grid", "0.5:0.5:0.1", "--methods", "sim",
                           "--out", str(tmp_path / "rows.csv")]}[command]
        code, out, err = run_cli(capsys, command, *where, "--slots", "1")
        assert code == 2
        assert out == "" and err == ("error: the sim route needs 2 slots or more, "
                                     "for two batch means, got 1\n")

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
        assert issubclass(TruncationError, NumericalError)


def _raise_numerical(p):
    raise NumericalError("patched closed form")


# The other exit-3 kinds, each with a command that raises it and a patch
# (module, attribute, value) that makes it raise, where one is needed.
_EXIT_THREE = [
    pytest.param(CapError, None,
                 ("chain", "--metric", "aoai", "--lambda1", "0.01", "--lambda2", "0.01",
                  "--cap", "3000"), "has 4504500 states", id="CapError"),
    pytest.param(ConvergenceError, (chains, "MAX_SWEEPS", 1),
                 ("chain", "--metric", "aoa", "--lambda1", "0.5", "--lambda2", "0.5",
                  "--cap", "40"), "within 1 sweeps", id="ConvergenceError"),
    pytest.param(NumericalError, (analytic, "avg_aoa", _raise_numerical),
                 ("analytic", "--lambda1", "0.5", "--lambda2", "0.5"),
                 "patched closed form", id="NumericalError"),
]


@pytest.mark.parametrize("kind,patch,args,message", _EXIT_THREE)
def test_every_numerical_error_exits_three(capsys, monkeypatch, kind, patch, args, message):
    # `main` names only NumericalError for exit 3, so every kind must be one.
    assert issubclass(kind, NumericalError)
    if patch:
        monkeypatch.setattr(*patch)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: ") and message in err


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


@pytest.mark.parametrize("args,exit_code,expected", GOLDEN_STDOUT,
                         ids=[args[0] for args, _, _ in GOLDEN_STDOUT[:-1]] + ["simulate-short"])
def test_golden_stdout(capsys, args, exit_code, expected):
    code, out, _ = run_cli(capsys, *args)
    assert code == exit_code
    assert out == expected


# The events of the piece-edge test, by kind: seeded flags at these (data,
# energy) rates, or None for stale packets: data at the first slot of each
# piece and energy at its last, so that every piece ends on an actuation of
# a packet `piece - 1` slots old, whose aoi the next piece carries.
_EDGE_EVENTS = {"random": (0.3, 0.6), "data-rich": (0.9, 0.1), "none": (0, 0),
                "data-only": (1, 0), "energy-only": (0, 1), "both": (1, 1), "stale": None}
# Patched small pieces replay every kind; the real size, random and stale.
_EDGE_CASES = [pytest.param(piece, kind, id=f"{kind}-{piece}")
               for kind in _EDGE_EVENTS for piece in (8, 64)] + [
    pytest.param(engine._TRACE_PIECE, kind, id=f"{kind}-{engine._TRACE_PIECE}")
    for kind in ("random", "stale")]


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
                for (d, e), (s, act) in zip(flags, run_trace(
                    [SlotEvents(bool(d), bool(e)) for d, e in flags]))]
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

    @pytest.mark.parametrize("piece, kind", _EDGE_CASES)
    def test_output_across_piece_edges_matches_run_trace(
            self, capsys, tmp_path, monkeypatch, piece, kind):
        # Small pieces put many edges, and every carried age and occupancy,
        # inside a short file; 203 slots end mid-piece.  At the real size,
        # 3.5 pieces do.
        n = 203 if piece < engine._TRACE_PIECE else 7 * piece // 2
        monkeypatch.setattr(engine, "_TRACE_PIECE", piece)
        rates = _EDGE_EVENTS[kind]
        if rates is None:
            t = np.arange(n) % piece
            flags = np.column_stack((t == 0, t == piece - 1))
        else:
            flags = np.random.default_rng(piece).random((n, 2)) < rates
        f, rows = self._reference_trace(tmp_path, flags)
        code, out, _ = run_cli(capsys, "trace", "--events", str(f))
        assert code == 0
        assert_same_lines(out, [",".join(TRACE_FIELDS)] + [",".join(map(str, r)) for r in rows])
        code, out, _ = run_cli(capsys, "trace", "--events", str(f), "--json")
        assert code == 0
        assert_same_lines(out, [json.dumps(dict(zip(TRACE_FIELDS, r))) for r in rows])

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
        # spans 3 pieces or 15.  The simulator's tables, built once
        # per process, are built before the measurement.
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

    @pytest.mark.parametrize("row, fields", [("2,1", 2), ("2,1,0,1", 4)])
    def test_wrong_field_count_exit_two_names_line(self, capsys, tmp_path, row, fields):
        f = tmp_path / "ev.csv"
        f.write_text(f"t,data,energy\n1,0,0\n{row}\n")
        code, out, err = run_cli(capsys, "trace", "--events", str(f))
        assert (code, out) == (2, "")
        assert err == f"error: line 3: expected 3 fields, got {fields}\n"

    def test_missing_file_exit_two(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "trace", "--events", str(tmp_path / "nope.csv"))
        assert code == 2

    def test_undecodable_byte_exit_two_names_line(self, capsys, tmp_path):
        # Read as UTF-8 whatever the locale; the bad byte is a bad value.
        f = tmp_path / "ev.csv"
        f.write_bytes(b"t,data,energy\n1,1,0\n2,\xff,1\n")
        code, out, err = run_cli(capsys, "trace", "--events", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 3: ") and err.count("\n") == 1

    def test_byte_order_mark_is_dropped(self, capsys, tmp_path):
        # Spreadsheet CSV exports start the file with a UTF-8 byte-order mark.
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(GOLDEN_TRACE_EVENTS, encoding="utf-8")
        bom.write_text(GOLDEN_TRACE_EVENTS, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbft,data,energy\n")
        np.testing.assert_array_equal(read_events_csv(bom), read_events_csv(plain))
        code, out, _ = run_cli(capsys, "trace", "--events", str(bom))
        assert code == 0 and out == GOLDEN_TRACE_OUTPUT


class TestSweep:
    def test_unwritable_out_path_fails_before_the_sweep(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(validation, "sweep", refuse)
        code, _, err = run_cli(capsys, "sweep", "--grid", "0.5:0.5:0.1",
                               "--out", "/no/such/dir/x.csv")
        assert code == 2
        assert err.startswith("error: [Errno 2] No such file or directory")

    @pytest.mark.parametrize("existed", [True, False])
    def test_sweep_that_raises_leaves_the_path_as_it_was(self, capsys, tmp_path, existed):
        # A negative seed fails inside the sweep, after the file is open.
        out_file = tmp_path / "s.csv"
        if existed:
            out_file.write_text("kept\n")
        code, _, err = run_cli(capsys, "sweep", "--grid", "0.5:0.5:0.1", "--methods", "sim",
                               "--slots", "1000", "--seed", "-3", "--out", str(out_file))
        assert code == 2 and "seed must be nonnegative" in err
        if existed:
            assert out_file.read_text() == "kept\n"
        else:
            assert not out_file.exists()

    @pytest.mark.parametrize("existed", [True, False])
    def test_failed_write_leaves_no_partial_file(self, capsys, tmp_path, monkeypatch, existed):
        out_file = tmp_path / "s.csv"
        if existed:
            out_file.write_text("kept\n")

        def fail_midway(rows, as_json, out):
            out.write(CSV_HEADER + "\n")
            out.flush()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "_emit", fail_midway)
        code, _, err = run_cli(capsys, "sweep", "--grid", "0.5:0.5:0.1",
                               "--out", str(out_file))
        assert code == 2 and err.startswith("error: [Errno 28] No space left on device")
        assert not out_file.exists()

    def test_existing_file_is_replaced_whole(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        out_file.write_text("x" * 10_000)
        assert run_cli(capsys, "sweep", "--grid", "0.5:0.5:0.1", "--out", str(out_file))[0] == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 4

    def test_out_to_a_pipe_is_written_and_kept(self, capsys, tmp_path):
        # A FIFO, like /dev/stdout piped on: it cannot be truncated, and the
        # sweep neither empties nor removes it.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _, err = run_cli(capsys, "sweep", "--grid", "0.5:0.5:0.1", "--out", str(fifo))
        reader.join(timeout=60)
        assert (code, err) == (0, "")
        assert got[0].splitlines()[0] == CSV_HEADER and len(got[0].splitlines()) == 4
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    @staticmethod
    def _sweep_into_stdout_file(tmp_path, emit_fails):
        """`sweep --out L` in a fresh process, L a symlink to its own descriptor 1,
        with stdout a file that already holds a first line, as in
        `{ echo first-line; aoa-lab sweep --out L; echo last-line; } > f`.
        Returns the exit code, stderr, the file's text and whether L is left."""
        link, stdout_file = tmp_path / "L", tmp_path / "f.txt"
        link.symlink_to("/proc/self/fd/1")
        script = ("import sys\nfrom aoa_lab import cli\n"
                  "def fail(rows, as_json, out):\n"
                  "    raise OSError(28, 'No space left on device')\n"
                  f"if {emit_fails}:\n    cli._emit = fail\n"
                  f"sys.exit(cli.main(['sweep', '--grid', '0.5:0.5:0.1', '--out', {str(link)!r}]))\n")
        src = str(Path(cli.__file__).resolve().parents[1])
        with open(stdout_file, "wb") as out:
            out.write(b"first-line\n")
            out.flush()
            proc = subprocess.run([sys.executable, "-c", script], stdout=out,
                                  stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
                                  timeout=60)
            out.write(b"last-line\n")
        return proc.returncode, proc.stderr.decode(), stdout_file.read_text(), link.is_symlink()

    def test_out_to_stdouts_own_file_follows_what_it_holds(self, tmp_path):
        # The rows go after the first line, and a later write to stdout after them.
        code, err, text, kept = self._sweep_into_stdout_file(tmp_path, emit_fails=False)
        assert (code, err, kept) == (0, "", True)
        lines = text.splitlines()
        assert lines[:2] == ["first-line", CSV_HEADER] and lines[-1] == "last-line"
        assert len(lines) == 6

    def test_failed_write_to_stdouts_own_file_removes_nothing(self, tmp_path):
        code, err, text, kept = self._sweep_into_stdout_file(tmp_path, emit_fails=True)
        assert code == 2 and err.startswith("error: [Errno 28] No space left on device")
        assert kept and text == "first-line\nlast-line\n"

    def test_sweep_computes_no_findings(self, capsys, tmp_path, monkeypatch):
        def refuse(points):
            raise AssertionError("findings computed")

        monkeypatch.setattr(validation, "findings", refuse)
        code, _, _ = run_cli(capsys, "sweep", "--grid", "0.1:0.9:0.4",
                             "--out", str(tmp_path / "s.csv"))
        assert code == 0

    def test_unopenable_out_file_is_kept(self, capsys, tmp_path, monkeypatch):
        # As a read-only file in a writable directory: the open fails, and the
        # file that was there stays.
        out_file = tmp_path / "s.csv"
        out_file.write_text("kept\n")

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(out_file))

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        code, _, err = run_cli(capsys, "sweep", "--grid", "0.5:0.5:0.1",
                               "--out", str(out_file))
        assert code == 2
        assert err.startswith("error: [Errno 13] Permission denied")
        assert out_file.read_text() == "kept\n"

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
            if r["method"] == "sim":  # every point takes the sweep's own seed
                assert (r["slots"], r["seed"], r["cap"]) == ("20000", "7", "")
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


@pytest.mark.parametrize("command, args, message", [
    pytest.param("validate", ("--tail-eps", "2"), "tail_eps must be in (0, 1), got 2.0",
                 id="validate-tail-eps"),
    pytest.param("validate", ("--seed", "-1"), "seed must be nonnegative, got -1",
                 id="validate-seed"),
    pytest.param("validate", ("--tol-rel", "0"), "tol_rel must be positive, got 0.0",
                 id="validate-tol-rel"),
    pytest.param("validate", ("--seed", "-1", "--tail-eps", "2"),
                 "seed must be nonnegative, got -1", id="validate-sim-before-chain"),
    pytest.param("sweep", ("--methods", "chain", "--tail-eps", "2"),
                 "tail_eps must be in (0, 1), got 2.0", id="sweep-tail-eps"),
    pytest.param("sweep", ("--methods", "sim", "--seed", "-1"),
                 "seed must be nonnegative, got -1", id="sweep-seed"),
    pytest.param("validate", ("--slots", str(10**19)),
                 f"slots must be at most {MAX_SLOTS}, got {10**19}", id="validate-slots"),
    pytest.param("sweep", ("--methods", "sim", "--slots", str(10**19)),
                 f"slots must be at most {MAX_SLOTS}, got {10**19}", id="sweep-slots"),
    pytest.param("sweep", ("--methods", "analytic,series", "--seed", "-1", "--tail-eps", "2"),
                 None, id="sweep-routes-not-asked-for"),
])
def test_bad_argument_fails_before_any_route_runs(capsys, tmp_path, monkeypatch,
                                                  command, args, message):
    # A 25-point grid would run on the pool; each bad argument is the first
    # point's, so it fails before the pool starts or any route runs.  A route
    # that is not asked for checks none of its arguments.
    def refuse(*args, **kwargs):
        raise AssertionError("a route ran")

    if message is not None:
        monkeypatch.setattr(engine, "run_batched", refuse)
        monkeypatch.setattr(validation.chains, "choose_cap", refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    out_file = tmp_path / "s.csv"
    extra = ("--out", str(out_file)) if command == "sweep" else ()
    code, out, err = run_cli(capsys, command, "--grid", "0.1:0.9:0.2", "--slots", "3000000",
                             *args, *extra)
    if message is None:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == "" and err == f"error: {message}\n"
        assert not out_file.exists()


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


@pytest.mark.parametrize("command", ["sweep", "validate"])
def test_three_grid_ranges_exit_two(capsys, tmp_path, command):
    grid = "0.1:0.2:0.1,0.1:0.2:0.1,0.1:0.2:0.1"
    out_file = tmp_path / "s.csv"
    extra = ("--out", str(out_file)) if command == "sweep" else ()
    code, out, err = run_cli(capsys, command, "--grid", grid, *extra)
    assert (code, out) == (2, "")
    assert err == f"error: grid must be A:B:STEP or A:B:STEP,A:B:STEP, got {grid!r}\n"
    assert not out_file.exists()
