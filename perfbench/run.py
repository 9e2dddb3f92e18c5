"""Benchmark of aoa-lab: the `sim`, `chain` and `validate` workloads.

One workload:

    python3 perfbench/run.py --workload sim --seed 1 --seconds 55 --trace 0

Every workload, each untraced and traced, with a summary (exit 1 if any check
fails):

    python3 perfbench/run.py --all --seed 1 [--seconds 55]

A run times `SETUP_PROBES` fresh set-up probes (perfbench/probe.py), half
before and half after it runs the workload in a fresh process
(perfbench/workload.py), so that `setup_s` samples the whole run.  It prints
every metric by name with its unit, writes the details to
`.bench_out/result-<workload>-seed<seed>-trace<t>.json` and ends with one JSON
line: `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, with `--trace 1` its
per-layer metrics.  See perfbench/README.md for what each one measures.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import ENV, NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 8
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    """The program could not be set up or run; no result is printed."""


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():  # do not report the commit of an enclosing repo
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _run_child(cmd: list[str], env: dict, timeout: float) -> str:
    """Run a child in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1]} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"{cmd[1]} printed nothing")
    return lines[-1]


def probe_setup(count: int) -> list[dict]:
    """Time `count` fresh processes from start to `aoa_lab` imported."""
    probes = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py")], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        wall = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or not line:
            raise BenchError(f"set-up probe exited with code {proc.returncode}")
        probes.append({"setup_s": wall, **json.loads(line)})
    return probes


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _spread(values) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": q[1], "q3": q[2]}


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (final result line, details for the result file)."""
    begin = time.perf_counter()
    if not (ROOT / "src" / "aoa_lab" / "__init__.py").is_file():
        raise BenchError(f"no aoa_lab package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    probes = probe_setup(SETUP_PROBES // 2)
    env = dict(os.environ, **ENV.get(name, {}))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))] + (["--tiny"] if tiny else [])
    # Leave time for the set-up probes that follow the workload.
    child = json.loads(_run_child(cmd, env, DEADLINE_S - 15.0 - (time.perf_counter() - begin)))
    probes += probe_setup(SETUP_PROBES - SETUP_PROBES // 2)

    setup = {key: _median([p[key] for p in probes]) for key in probes[0]}
    if trace:
        keys = child["layers"][0].keys() if child["layers"] else ()
        values = {k: _median([op[k] for op in child["layers"]]) for k in keys}
        traced, untraced = _median(child["traced_op_s"]), _median(child["op_s"])
        values.update({
            "cli.stdout_bytes": child["stdout_bytes"],
            "setup.numpy_s": setup["numpy_s"],
            "setup.scipy_sparse_s": setup["scipy_sparse_s"],
            "setup.aoa_lab_s": setup["aoa_lab_s"],
            "trace.op_s": traced,
            "trace.untraced_op_s": untraced,
            "trace.overhead_s": traced - untraced,
        })
        declared = spec["per_layer"]
    else:
        values = {"op_s": _median(child["op_s"]), "setup_s": setup["setup_s"],
                  "peak_rss_mb": child["peak_rss_mb"]}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
               for m in declared}
    correct = child["failed"] == 0 and all(m["value"] is not None for m in metrics.values())
    result = {"correct": correct, "attempted": child["attempted"], "failed": child["failed"],
              "metrics": metrics}
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "tiny": tiny, "argv": child["argv"],
        "commit": git_commit(), "facts": child["facts"], "problems": child["problems"],
        "error_rate": child["failed"] / child["attempted"],
        "op_s": _spread(child["op_s"]) if child["op_s"] else None,
        "traced_op_s": _spread(child["traced_op_s"]) if child["traced_op_s"] else None,
        "setup_s": _spread([p["setup_s"] for p in probes]),
        "samples": {"op_s": child["op_s"], "traced_op_s": child["traced_op_s"],
                    "probes": probes, "layers": child["layers"]},
        "result": result,
    }
    return result, details


def report(details: dict) -> None:
    """Print a run's metrics, sample counts, quartiles and machine facts."""
    head = f"{details['workload']} seed={details['seed']} trace={details['trace']}"
    print(f"# {head} commit={details['commit']} argv={' '.join(details['argv'])}")
    print(f"# facts {json.dumps(details['facts'])}")
    for key in ("op_s", "traced_op_s", "setup_s"):
        s = details[key]
        if s:
            print(f"# {key}: n={s['n']} q1={s['q1']:.4f} median={s['median']:.4f} "
                  f"q3={s['q3']:.4f} s (no tail percentile: fewer than 10 samples beyond one)")
    result = details["result"]
    print(f"# error_rate = {details['error_rate']:g} "
          f"({result['failed']} failed of {result['attempted']} ops)")
    for problem in details["problems"]:
        print(f"# FAILED {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")


def write_details(details: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"result-{details['workload']}-seed{details['seed']}"
                      f"-trace{details['trace']}.json")
    path.write_text(json.dumps(details, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    runs = ([(args.workload, bool(args.trace))] if args.workload
            else [(name, trace) for name in NAMES for trace in (False, True)])
    all_details = []
    try:
        for name, trace in runs:
            result, details = run_workload(name, args.seed, args.seconds, trace, args.tiny)
            report(details)
            write_details(details)
            all_details.append(details)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload:
        print(json.dumps(result))
        return 0
    bad = [f"{d['workload']}/trace{d['trace']}" for d in all_details
           if not d["result"]["correct"]]
    print(f"# {'FAILED: ' + ', '.join(bad) if bad else 'all checks passed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
