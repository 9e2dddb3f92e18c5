"""Command-line surface.

Subcommands: analytic, simulate, chain, sweep, validate, trace.

Exit codes: 0 success, 1 validation failure, 2 usage or domain error,
3 numerical failure (any `NumericalError`: a solver that does not converge,
a tail too heavy for the cap, or a chain too large to build), 141
(128 + SIGPIPE), silently, when the reader of stdout closed it, as `| head`
does.

CSV rows have one column per field of `validation.Row`, in its order, with
real values printed to 9 significant digits and inapplicable fields left
blank, so output is byte-stable for identical flags and seed.  `--json`
emits one JSON object per row with the same keys.  Each line is one `validation.Row`;
`validation.route_rows` computes every value printed here.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import os
import stat
import sys
from typing import Optional, Sequence, TextIO

from . import engine, validation
from .core import Params
from .engine import TRACE_FIELDS
from .errors import AoaLabError, DomainError, NumericalError

_ROW_FIELDS = tuple(f.name for f in dataclasses.fields(validation.Row))
CSV_HEADER = ",".join(_ROW_FIELDS)
# Not dataclasses.astuple, which deep-copies every field: 0.45 s more over
# the 30 000 rows of a 100 x 100 analytic sweep.
_row_values = operator.attrgetter(*_ROW_FIELDS)
# A `trace` row formatted in one step.  Every field is an int or a bool, which
# `%d` prints as 0 or 1, so the bytes are those of ",".join(map(str, row)) and
# of json.dumps(dict(zip(TRACE_FIELDS, row))) with the bools made ints.
_TRACE_CSV = ",".join(["%d"] * len(TRACE_FIELDS))
_TRACE_JSON = "{" + ", ".join(f'"{name}": %d' for name in TRACE_FIELDS) + "}"


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _csv_line(r: validation.Row) -> str:
    return ",".join(_fmt(x) if isinstance(x, float) else "" if x is None else str(x)
                    for x in _row_values(r))


def _emit(rows: Sequence[validation.Row], as_json: bool, out: TextIO) -> None:
    if as_json:
        for r in rows:
            print(json.dumps(dataclasses.asdict(r)), file=out)
    else:
        print(CSV_HEADER, file=out)
        for r in rows:
            print(_csv_line(r), file=out)


def _parse_names(spec: str, allowed: Sequence[str], what: str) -> list[str]:
    names = [m.strip() for m in spec.split(",") if m.strip()]
    if not names or any(m not in allowed for m in names):
        raise DomainError(f"{what} must be from {allowed}, got {spec!r}")
    return list(dict.fromkeys(names))  # repeats dropped, first-seen order kept


def _parse_grid(spec: str) -> list[Params]:
    ranges = spec.split(",")
    if len(ranges) == 1:
        xs = ys = validation.grid_range(ranges[0])
    elif len(ranges) == 2:
        xs = validation.grid_range(ranges[0])
        ys = validation.grid_range(ranges[1])
    else:
        raise DomainError(f"grid must be A:B:STEP or A:B:STEP,A:B:STEP, got {spec!r}")
    return [Params(a, b) for a in xs for b in ys]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_analytic(args) -> int:
    p = Params(args.lambda1, args.lambda2)
    metrics = _parse_names(args.metrics, validation.METRICS, "metrics")
    _emit(validation.route_rows(p, "analytic", metrics), args.json, sys.stdout)
    return 0


def cmd_simulate(args) -> int:
    p = Params(args.lambda1, args.lambda2)
    _emit(validation.route_rows(p, "sim", slots=args.slots, seed=args.seed),
          args.json, sys.stdout)
    return 0


def cmd_chain(args) -> int:
    p = Params(args.lambda1, args.lambda2)
    _emit(validation.route_rows(p, "chain", (args.metric,), tail_eps=args.tail_eps,
                                cap=args.cap), args.json, sys.stdout)
    return 0


def _is_stdout(fh) -> bool:
    """Whether `fh` is open on the file that stdout's descriptor 1 writes to.

    Not if descriptor 1 was closed: then `fh` may have been given it.
    """
    try:
        return fh.fileno() != 1 and os.path.samestat(os.fstat(fh.fileno()), os.fstat(1))
    except OSError:  # descriptor 1 is closed
        return False


def cmd_sweep(args) -> int:
    points = _parse_grid(args.grid)
    methods = _parse_names(args.methods, validation.METHOD_ORDER, "methods")
    # Open before the sweep, so an unwritable path fails at once; "a" keeps a
    # file that is there until the rows are ready, then empties a regular one.
    # Stdout's own file, as `--out /dev/stdout` names it, is neither emptied
    # nor removed: the rows are printed to stdout, after what it already holds.
    keep = os.path.exists(args.out)
    fh = open(args.out, "a", newline="")
    try:
        with fh:
            out = sys.stdout if _is_stdout(fh) else fh
            report = validation.sweep(points, methods, args.slots, args.seed,
                                      tail_eps=args.tail_eps)
            order = validation.METHOD_ORDER
            rows = sorted((r for c in report.rows for r in c.routes if r.method in methods),
                          key=lambda r: (r.lambda1, r.lambda2, order.index(r.method)))
            if out is fh and keep and stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                keep = False
                fh.truncate(0)
            _emit(rows, False, out)
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
    sp.add_argument("--tail-eps", type=float, default=validation.TAIL_EPS, dest="tail_eps")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("validate", help="cross-method verification over a grid")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--slots", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tail-eps", type=float, default=validation.TAIL_EPS, dest="tail_eps")
    sp.add_argument("--tol-rel", type=float, default=validation.TOL_REL, dest="tol_rel")
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
    except NumericalError as exc:
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
