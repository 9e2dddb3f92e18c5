"""Command-line surface.

Subcommands: analytic, simulate, chain, sweep, validate, trace.

Exit codes: 0 success, 1 validation failure, 2 usage or domain error,
3 numerical failure (non-convergence, truncation, cap overflow), 141 (128 +
SIGPIPE), silently, when the reader of stdout closed it, as `| head` does.

CSV rows follow the fixed schema
`lambda1,lambda2,method,metric,value,uncertainty,slots,seed,cap` with real
values printed to 9 significant digits and inapplicable fields left blank,
so output is byte-stable for identical flags and seed.  `--json` emits one
JSON object per row with the same keys.  Each line is one `validation.Row`;
`validation.route_rows` computes every value printed here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import stat
import sys
from typing import Optional, Sequence, TextIO

from . import engine, validation
from .core import Params
from .errors import (AoaLabError, CapError, ConvergenceError, DomainError,
                     NumericalError, TruncationError)

CSV_HEADER = "lambda1,lambda2,method,metric,value,uncertainty,slots,seed,cap"
TRACE_FIELDS = ("t", "data", "energy", "cache", "battery", "actuated", "aoi", "aoa", "aoai")
# A `trace` row formatted in one step.  Every field is an int or a bool, which
# `%d` prints as 0 or 1, so the bytes are those of ",".join(map(str, row)) and
# of json.dumps(dict(zip(TRACE_FIELDS, row))) with the bools made ints.
_TRACE_CSV = ",".join(["%d"] * len(TRACE_FIELDS))
_TRACE_JSON = "{" + ", ".join(f'"{name}": %d' for name in TRACE_FIELDS) + "}"


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _csv_line(r: validation.Row) -> str:
    opt = [("" if x is None else str(x)) for x in (r.slots, r.seed, r.cap)]
    return ",".join([_fmt(r.lambda1), _fmt(r.lambda2), r.method, r.metric,
                     _fmt(r.value), _fmt(r.uncertainty), *opt])


def _emit(rows: Sequence[validation.Row], as_json: bool, out: TextIO) -> None:
    if as_json:
        for r in rows:
            print(json.dumps(dataclasses.asdict(r)), file=out)
    else:
        print(CSV_HEADER, file=out)
        for r in rows:
            print(_csv_line(r), file=out)


def _cli_params(lambda1: float, lambda2: float) -> Params:
    # The CLI enforces the documented support floor; the library itself
    # accepts anything in (0, 1].
    for name, v in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not 0.01 <= v <= 1.0:
            raise DomainError(f"{name} must be in [0.01, 1], got {v}")
    return Params(lambda1, lambda2)


def _parse_metrics(spec: str) -> list[str]:
    metrics = [m.strip() for m in spec.split(",") if m.strip()]
    bad = [m for m in metrics if m not in validation.METRICS]
    if bad or not metrics:
        raise DomainError(f"metrics must be from {validation.METRICS}, got {spec!r}")
    return list(dict.fromkeys(metrics))  # repeats dropped, first-seen order kept


def _parse_grid(spec: str) -> list[Params]:
    ranges = spec.split(",")
    if len(ranges) == 1:
        xs = ys = validation.grid_range(ranges[0])
    elif len(ranges) == 2:
        xs = validation.grid_range(ranges[0])
        ys = validation.grid_range(ranges[1])
    else:
        raise DomainError(f"grid must be A:B:STEP or A:B:STEP,A:B:STEP, got {spec!r}")
    return [_cli_params(a, b) for a in xs for b in ys]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analytic(args) -> int:
    p = _cli_params(args.lambda1, args.lambda2)
    _emit(validation.route_rows(p, "analytic", _parse_metrics(args.metrics)),
          args.json, sys.stdout)
    return 0


def cmd_simulate(args) -> int:
    p = _cli_params(args.lambda1, args.lambda2)
    _emit(validation.route_rows(p, "sim", slots=args.slots, seed=args.seed),
          args.json, sys.stdout)
    return 0


def cmd_chain(args) -> int:
    p = _cli_params(args.lambda1, args.lambda2)
    _emit(validation.route_rows(p, "chain", (args.metric,), tail_eps=args.tail_eps,
                                cap=args.cap), args.json, sys.stdout)
    return 0


def _parse_methods(spec: str) -> list[str]:
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    bad = [m for m in methods if m not in validation.METHOD_ORDER]
    if bad or not methods:
        raise DomainError(
            f"methods must be from {validation.METHOD_ORDER}, got {spec!r}")
    return [m for m in validation.METHOD_ORDER if m in methods]


def cmd_sweep(args) -> int:
    points = _parse_grid(args.grid)
    methods = _parse_methods(args.methods)
    # Open before the sweep, so an unwritable path fails at once; "a" keeps a
    # file that is there until the rows are ready, then empties a regular one.
    keep = os.path.exists(args.out)
    fh = open(args.out, "a", newline="")
    try:
        with fh:
            report = validation.sweep(points, methods, args.slots, args.seed,
                                      tail_eps=args.tail_eps)
            order = validation.METHOD_ORDER
            rows = sorted((r for c in report.rows for r in c.routes if r.method in methods),
                          key=lambda r: (r.lambda1, r.lambda2, order.index(r.method)))
            if keep and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                keep = False
                fh.truncate(0)
            _emit(rows, False, fh)
    except BaseException:  # leave no partial file, and no file the sweep did not write
        if not keep:
            os.remove(args.out)
        raise
    return 0


def cmd_validate(args) -> int:
    points = _parse_grid(args.grid)
    report = validation.sweep(points, validation.METHOD_ORDER, args.slots, args.seed,
                              tol_rel=args.tol_rel, tail_eps=args.tail_eps)
    for r in report.rows:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{verdict} lambda1={_fmt(r.params.lambda1)} lambda2={_fmt(r.params.lambda2)} "
              f"metric={r.metric} max_rel_disagreement={_fmt(r.max_rel_disagreement)}")
    sym_dev, witnesses, monotone, violations = validation.findings(points)
    wit = ";".join(f"({axis},{_fmt(at)},{_fmt(lo)},{_fmt(hi)})"
                   for axis, at, lo, hi in witnesses) or "none"
    vio = ";".join(f"({_fmt(a)},{_fmt(b)}:{msg})" for a, b, msg in violations) or "none"
    print(f"symmetry_max_rel_dev={_fmt(sym_dev)}")
    print(f"aoa_nonmonotone_witnesses={wit}")
    print(f"aoai_monotone={'true' if monotone else 'false'}")
    print(f"ordering_violations={vio}")
    return 0 if report.all_passed else 1


def cmd_trace(args) -> int:
    # The whole file is parsed before the first row is printed, so a malformed
    # file prints nothing; then the scan replays it piece by piece, as
    # `engine.run_trace` would, and each piece is printed whole.
    pieces = engine._trace_columns(engine.read_events_csv(args.events))
    if not args.json:
        print(",".join(TRACE_FIELDS))
    template = _TRACE_JSON if args.json else _TRACE_CSV
    for rows in pieces:
        print("\n".join(template % tuple(row) for row in rows.tolist()))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoa-lab",
        description="Timeliness metrics of a slotted-time energy-harvesting actuator "
                    "with one-packet cache and battery.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lambdas(sp):
        sp.add_argument("--lambda1", type=float, required=True,
                        help="per-slot data reception probability, in [0.01, 1]")
        sp.add_argument("--lambda2", type=float, required=True,
                        help="per-slot energy availability probability, in [0.01, 1]")

    sp = sub.add_parser("analytic", help="closed-form averages at one point")
    add_lambdas(sp)
    sp.add_argument("--metrics", default="aoi,aoa,aoai")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_analytic)

    sp = sub.add_parser("simulate", help="seeded Monte Carlo averages at one point")
    add_lambdas(sp)
    sp.add_argument("--slots", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("chain", help="truncated-chain average at one point")
    add_lambdas(sp)
    sp.add_argument("--metric", required=True, choices=validation.ROUTE_METRICS["chain"])
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--cap", type=int)
    group.add_argument("--tail-eps", type=float, dest="tail_eps")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("sweep", help="evaluate a parameter grid and write CSV")
    sp.add_argument("--grid", required=True,
                    help="A:B:STEP for both axes, or two comma-separated ranges")
    sp.add_argument("--methods", default="analytic")
    sp.add_argument("--slots", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tail-eps", type=float, default=1e-10, dest="tail_eps")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("validate", help="cross-method verification over a grid")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--slots", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tail-eps", type=float, default=1e-10, dest="tail_eps")
    sp.add_argument("--tol-rel", type=float, default=0.01, dest="tol_rel")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("trace", help="replay an event-trace CSV slot by slot")
    sp.add_argument("--events", required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericalError, ConvergenceError, TruncationError, CapError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:  # no reader: stdout to the null device, so the last flush passes
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, AoaLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
