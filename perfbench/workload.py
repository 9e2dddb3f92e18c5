"""One benchmark workload, run in a fresh process: `python3 perfbench/workload.py ...`.

Each op is one in-process call of `aoa_lab.cli.main(argv)` with stdout
captured.  Ops run in a closed loop, one after another, until the next op
would end after `--seconds`.  Every op's output is checked; the process
prints one JSON line with the op times, the checks' verdicts, peak memory and
the facts of the machine.  With `--trace 1`, untraced and traced ops
alternate, so the traced run also measures its own overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from importlib.util import find_spec
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# BENCHMARK.json declares `sim` and `validate`.  `chain` runs by name too, but
# is not declared: its op times drift too far between runs on a shared host to
# hold a 25% bound (see README.md, "Noise on the measuring machine").
NAMES = ("sim", "chain", "validate")
# `validate` is the only workload that runs in parallel; pin its pool size so
# that runs on machines with more CPUs stay comparable.
ENV = {"validate": {"AOA_LAB_THREADS": "2"}}
SIM_ENVELOPE = 6.0  # simulated means must lie within this many standard errors


def argv(name: str, seed: int, tiny: bool = False) -> list[str]:
    """The CLI arguments of one op; `tiny` shrinks the work for the smoke test."""
    if name == "sim":
        slots = 200_000 if tiny else 10_000_000
        return ["simulate", "--lambda1", "0.05", "--lambda2", "0.05",
                "--slots", str(slots), "--seed", str(seed)]
    if name == "chain":
        rates = ("0.3", "0.5") if tiny else ("0.03", "0.5")
        return ["chain", "--metric", "aoai", "--lambda1", rates[0], "--lambda2", rates[1],
                "--tail-eps", "1e-10"]
    if name == "validate":
        grid, slots = ("0.5:0.9:0.4", 20_000) if tiny else ("0.1:0.9:0.2", 1_000_000)
        return ["validate", "--grid", grid, "--slots", str(slots), "--seed", str(seed)]
    raise ValueError(f"unknown workload {name!r}")


def run_op(cli_argv: list[str]) -> tuple[int, str, float]:
    """Call `aoa_lab.cli.main` once; returns (exit code, stdout, wall seconds)."""
    import aoa_lab.cli as cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(cli_argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue(), time.perf_counter() - start


def tap_sweep() -> dict:
    """Keep the last `validation.sweep` report, whose route values `validate` omits."""
    import aoa_lab.validation as validation

    box = {}
    original = validation.sweep

    @functools.wraps(original)
    def sweep(*args, **kwargs):
        box["report"] = original(*args, **kwargs)
        return box["report"]

    validation.sweep = sweep
    return box


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the op is correct.
# ---------------------------------------------------------------------------


def _csv_rows(stdout: str) -> list[dict]:
    from aoa_lab.cli import CSV_HEADER

    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return []
    header = CSV_HEADER.split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _params(cli_argv):
    from aoa_lab.core import Params

    return Params(float(cli_argv[cli_argv.index("--lambda1") + 1]),
                  float(cli_argv[cli_argv.index("--lambda2") + 1]))


def check_sim(cli_argv, code, stdout, report) -> list[str]:
    from aoa_lab import analytic

    rows = _csv_rows(stdout)
    if code != 0 or [r["metric"] for r in rows] != ["aoi", "aoa", "aoai"]:
        return [f"exit {code}, unexpected output {stdout[:200]!r}"]
    ref = analytic.averages(_params(cli_argv))
    problems = []
    for r in rows:
        exact = getattr(ref, f"{r['metric']}_bar")
        value, err = float(r["value"]), float(r["uncertainty"])
        if not (err > 0.0 and abs(value - exact) <= SIM_ENVELOPE * err):
            problems.append(f"sim {r['metric']} {value} +- {err} vs closed form {exact}")
    return problems


def check_chain(cli_argv, code, stdout, report) -> list[str]:
    from aoa_lab import analytic, chains

    rows = _csv_rows(stdout)
    if code != 0 or len(rows) != 1 or rows[0]["metric"] != "aoai":
        return [f"exit {code}, unexpected output {stdout[:200]!r}"]
    p = _params(cli_argv)
    row = rows[0]
    value, bound = float(row["value"]), float(row["uncertainty"])
    # The value is printed to 9 significant digits; allow that rounding too.
    rounding = 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 8)
    exact = analytic.avg_aoai(p)
    problems = []
    if abs(value - exact) > bound + rounding:
        problems.append(f"chain aoai {value} +- {bound} vs closed form {exact}")
    cap = chains.choose_cap(p, float(cli_argv[cli_argv.index("--tail-eps") + 1]))
    if row["cap"] != str(cap):
        problems.append(f"chain cap {row['cap']} != choose_cap {cap}")
    return problems


def check_validate(cli_argv, code, stdout, report) -> list[str]:
    """Every route value within its own envelope of the closed form.

    A FAIL verdict (exit 1) is a statistical outcome of the program's own
    test, counted by the trace as validation.fail_rows, not a failed op.
    """
    if report is None or code not in (0, 1):
        return [f"exit {code}, no sweep report"]
    problems = []
    for r in report.rows:
        where = f"({r.params.lambda1}, {r.params.lambda2}) {r.metric}"
        routes = [("sim", r.simulated, SIM_ENVELOPE * (r.sim_stderr or 0.0))]
        if r.metric != "aoi":
            routes.append(("chain", r.chain, r.chain_bound))
        if r.metric == "aoa":
            routes.append(("series", r.series, r.series_bound))
        for route, value, envelope in routes:
            if value is None or abs(value - r.analytic) > envelope:
                problems.append(f"{route} {where}: {value} vs closed form {r.analytic}"
                                f" (envelope {envelope})")
    verdicts = [line.split()[0] for line in stdout.splitlines()
                if line.startswith(("PASS ", "FAIL "))]
    fails = sum(not r.passed for r in report.rows)
    if len(verdicts) != len(report.rows) or verdicts.count("FAIL") != fails:
        problems.append(f"{len(verdicts)} verdict lines for {len(report.rows)} rows")
    if code != (1 if fails else 0):
        problems.append(f"exit {code} with {fails} failing rows")
    return problems


CHECKS = {"sim": check_sim, "chain": check_chain, "validate": check_validate}


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_present": find_spec("numba") is not None,
        "pool_start_method": multiprocessing.get_start_method(),
        "AOA_LAB_THREADS": os.environ.get("AOA_LAB_THREADS"),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of a full pool of workers.

    `ru_maxrss` of the reaped children is the largest single worker's peak, so
    this process's peak plus pool size times that is an upper bound on the
    combined resident set at any instant (pages a worker shares with this
    process after the fork count once per process).  Without a pool, no child
    is reaped and the bound is this process's own peak.
    """
    from aoa_lab.validation import default_workers

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + default_workers() * worker) / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    from spans import Tracer, layer_metrics

    cli_argv = argv(name, seed, tiny)
    report_box = tap_sweep() if name == "validate" else {}
    tracer = Tracer() if trace else None
    times = {"untraced": [], "traced": []}
    layers = []
    problems = []
    reference = None
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        traced = trace and attempted % 2 == 1
        report_box.pop("report", None)
        try:
            if traced:
                tracer.op = attempted
                tracer.install()
            try:
                code, stdout, wall = run_op(cli_argv)
            finally:
                if traced:
                    tracer.uninstall()
            # The checks call the program too; they run untraced, outside the op.
            issues = CHECKS[name](cli_argv, code, stdout, report_box.get("report"))
        except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
            stdout, wall, issues = None, None, [f"raised {exc!r}"]
        if reference is None:
            reference = stdout
        elif stdout != reference:
            issues.append(f"stdout of op {attempted} differs from op 0")
        attempted += 1
        if issues:
            failed += 1
            problems.extend(f"op {attempted - 1}: {msg}" for msg in issues[:5])
        else:
            times["traced" if traced else "untraced"].append(wall)
            if traced:
                op_spans = [s for s in tracer.spans if s["op"] == attempted - 1]
                layers.append(layer_metrics(op_spans))
        done = times["untraced"] + times["traced"]
        elapsed = time.perf_counter() - begin
        typical = statistics.median(done) if done else elapsed / attempted
        if (attempted >= (4 if trace else 3) and not (trace and attempted % 2)
                and elapsed + typical > seconds):
            break
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{name}-seed{seed}.jsonl", "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    return {
        "argv": cli_argv,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "op_s": times["untraced"],
        "traced_op_s": times["traced"],
        "layers": layers,
        "stdout_bytes": len(reference.encode()) if reference is not None else 0,
        "peak_rss_mb": peak_rss_mb(),
        "facts": machine_facts(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if not (SRC / "aoa_lab" / "__init__.py").is_file():
        print(f"error: no aoa_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
