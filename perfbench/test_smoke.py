"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from spans import Tracer, self_times
from workload import ENV, NAMES, argv, run_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in declared:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float))
        assert f"\n{m['name']} = {value} {m['unit']}\n" in proc.stdout
    if trace:  # layers a workload never calls read 0, whatever its checks call
        for name in NEVER_CALLED[workload]:
            assert result["metrics"][name]["value"] == 0, name


NEVER_CALLED = {
    "sim": ("analytic.averages.calls", "chains.states", "validation.cross_check.calls"),
    "chain": ("analytic.averages.calls", "engine.run_batched.calls",
              "validation.cross_check.calls"),
    "validate": (),
}


@pytest.mark.parametrize("workload", NAMES)
def test_wrapped_and_unwrapped_cli_print_the_same_bytes(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    for key, value in ENV.get(workload, {}).items():
        monkeypatch.setenv(key, value)
    cli_argv = argv(workload, 3, tiny=True)
    _, plain, _ = run_op(cli_argv)
    tracer = Tracer()
    tracer.op = 0
    tracer.install()
    try:
        _, traced, _ = run_op(cli_argv)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {s["name"] for s in tracer.spans}
    assert "cli.main" in names
    if workload == "validate":
        workers = {s["pid"] for s in tracer.spans if s["name"] == "validation.cross_check"}
        assert workers and os.getpid() not in workers  # spans shipped back from the pool


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        {"id": "p", "parent": None, "start": 0.0, "end": 10.0},
        {"id": "a", "parent": "p", "start": 1.0, "end": 4.0},
        {"id": "b", "parent": "p", "start": 3.0, "end": 6.0},
        {"id": "c", "parent": "b", "start": 5.0, "end": 8.0},  # outlives its parent
    ]
    assert self_times(spans) == pytest.approx({"p": 5.0, "a": 3.0, "b": 2.0, "c": 3.0})


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sim", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
