"""Command-line surface.

Subcommands: analytic, simulate, chain, sweep, validate, trace.

Exit codes: 0 success, 1 validation failure, 2 usage or domain error,
3 numerical failure (non-convergence, truncation, cap overflow).

CSV rows follow the fixed schema
`lambda1,lambda2,method,metric,value,uncertainty,slots,seed,cap` with real
values printed to 9 significant digits and inapplicable fields left blank,
so output is byte-stable for identical flags and seed.  `--json` emits one
JSON object per row with the same keys.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from . import analytic, chains, engine, validation
from .core import Params
from .errors import (AoaLabError, CapError, ConvergenceError, DomainError,
                     NumericalError, TruncationError)

CSV_HEADER = "lambda1,lambda2,method,metric,value,uncertainty,slots,seed,cap"

_CHAIN_METRICS = ("aoa", "aoai")
_SERIES_METRICS = ("aoa",)


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


@dataclass(frozen=True)
class OutputRow:
    lambda1: float
    lambda2: float
    method: str
    metric: str
    value: float
    uncertainty: float
    slots: Optional[int] = None
    seed: Optional[int] = None
    cap: Optional[int] = None

    def csv_line(self) -> str:
        opt = [("" if x is None else str(x)) for x in (self.slots, self.seed, self.cap)]
        return ",".join([_fmt(self.lambda1), _fmt(self.lambda2), self.method,
                         self.metric, _fmt(self.value), _fmt(self.uncertainty), *opt])

    def json_obj(self) -> dict:
        return {
            "lambda1": self.lambda1,
            "lambda2": self.lambda2,
            "method": self.method,
            "metric": self.metric,
            "value": self.value,
            "uncertainty": self.uncertainty,
            "slots": self.slots,
            "seed": self.seed,
            "cap": self.cap,
        }


def _emit(rows: Sequence[OutputRow], as_json: bool) -> None:
    if as_json:
        for r in rows:
            print(json.dumps(r.json_obj()))
    else:
        print(CSV_HEADER)
        for r in rows:
            print(r.csv_line())


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
    return metrics


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
    ref = analytic.averages(p)
    values = {"aoi": ref.aoi_bar, "aoa": ref.aoa_bar, "aoai": ref.aoai_bar}
    rows = [OutputRow(p.lambda1, p.lambda2, "analytic", m, values[m], 0.0)
            for m in _parse_metrics(args.metrics)]
    _emit(rows, args.json)
    return 0


def cmd_simulate(args) -> int:
    p = _cli_params(args.lambda1, args.lambda2)
    estimates = validation.sim_estimates(p, args.slots, args.seed, args.warmup)
    rows = [OutputRow(p.lambda1, p.lambda2, "sim", m, mean, err,
                      slots=args.slots, seed=args.seed)
            for m, (mean, err) in zip(validation.METRICS, estimates)]
    _emit(rows, args.json)
    return 0


def cmd_chain(args) -> int:
    p = _cli_params(args.lambda1, args.lambda2)
    if args.metric not in _CHAIN_METRICS:
        raise DomainError(f"metric must be one of {_CHAIN_METRICS}, got {args.metric!r}")
    cap = args.cap if args.cap is not None else chains.choose_cap(p, args.tail_eps)
    builder = chains.build_aoa_chain if args.metric == "aoa" else chains.build_aoai_chain
    chain = builder(p, cap)
    dist = chains.stationary(chain)
    mean, bound = chains.mean_age(dist, chain)
    _emit([OutputRow(p.lambda1, p.lambda2, "chain", args.metric, mean, bound, cap=cap)],
          args.json)
    return 0


def _parse_methods(spec: str) -> list[str]:
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    bad = [m for m in methods if m not in validation.METHOD_ORDER]
    if bad or not methods:
        raise DomainError(
            f"methods must be from {validation.METHOD_ORDER}, got {spec!r}")
    return [m for m in validation.METHOD_ORDER if m in methods]


def _report_rows(report: validation.SweepReport, methods: Sequence[str],
                 slots: int, seed: int) -> list[OutputRow]:
    """Flatten a sweep report to OutputRows in the canonical deterministic order."""
    point_index = {(p.lambda1, p.lambda2): i for i, p in enumerate(report.grid)}
    by_point = {}
    for r in report.rows:
        by_point.setdefault((r.params.lambda1, r.params.lambda2), {})[r.metric] = r
    out = []
    for key in sorted(by_point):
        per_metric = by_point[key]
        pt_seed = seed + point_index[key]
        for method in (m for m in validation.METHOD_ORDER if m in methods):
            metrics = (validation.METRICS if method in ("analytic", "sim")
                       else _CHAIN_METRICS if method == "chain" else _SERIES_METRICS)
            for metric in metrics:
                r = per_metric[metric]
                if method == "analytic":
                    out.append(OutputRow(*key, "analytic", metric, r.analytic, 0.0))
                elif method == "sim" and r.simulated is not None:
                    out.append(OutputRow(*key, "sim", metric, r.simulated,
                                         r.sim_stderr or 0.0, slots=slots, seed=pt_seed))
                elif method == "chain" and r.chain is not None:
                    out.append(OutputRow(*key, "chain", metric, r.chain,
                                         r.chain_bound or 0.0, cap=r.chain_cap))
                elif method == "series" and r.series is not None:
                    out.append(OutputRow(*key, "series", metric, r.series,
                                         r.series_bound or 0.0))
    return out


def cmd_sweep(args) -> int:
    points = _parse_grid(args.grid)
    methods = _parse_methods(args.methods)
    report = validation.sweep(points, methods, args.slots, args.seed,
                              tol_rel=args.tol_rel, warmup=args.warmup,
                              tail_eps=args.tail_eps)
    rows = _report_rows(report, methods, args.slots, args.seed)
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(r.csv_line() + "\n")
    except BaseException:
        if os.path.exists(args.out):
            os.remove(args.out)
        raise
    return 0


def cmd_validate(args) -> int:
    points = _parse_grid(args.grid)
    report = validation.sweep(points, validation.METHOD_ORDER, args.slots, args.seed,
                              tol_rel=args.tol_rel, warmup=args.warmup,
                              tail_eps=args.tail_eps)
    for r in report.rows:
        verdict = "PASS" if r.passed else "FAIL"
        print(f"{verdict} lambda1={_fmt(r.params.lambda1)} lambda2={_fmt(r.params.lambda2)} "
              f"metric={r.metric} max_rel_disagreement={_fmt(r.max_rel_disagreement)}")
    wit = ";".join(f"({_fmt(b)},{_fmt(lo)},{_fmt(hi)})"
                   for b, lo, hi in report.aoa_nonmonotone_witnesses) or "none"
    vio = ";".join(f"({_fmt(a)},{_fmt(b)}:{msg})"
                   for a, b, msg in report.ordering_violations) or "none"
    print(f"symmetry_max_rel_dev={_fmt(report.symmetry_max_rel_dev)}")
    print(f"aoa_nonmonotone_witnesses={wit}")
    print(f"aoai_monotone={'true' if report.aoai_monotone else 'false'}")
    print(f"ordering_violations={vio}")
    return 0 if report.all_passed else 1


def cmd_trace(args) -> int:
    events = engine.read_events_csv(args.events)
    trajectory = engine.run_trace(events)
    if args.json:
        for ev, (state, act) in zip(events, trajectory):
            print(json.dumps({
                "t": state.slot,
                "data": int(ev.data_arrived),
                "energy": int(ev.energy_arrived),
                "cache": state.system.cache,
                "battery": state.system.battery,
                "actuated": int(act),
                "aoi": state.ages.aoi,
                "aoa": state.ages.aoa,
                "aoai": state.ages.aoai,
            }))
    else:
        print("t,data,energy,cache,battery,actuated,aoi,aoa,aoai")
        for ev, (state, act) in zip(events, trajectory):
            print(f"{state.slot},{int(ev.data_arrived)},{int(ev.energy_arrived)},"
                  f"{state.system.cache},{state.system.battery},{int(act)},"
                  f"{state.ages.aoi},{state.ages.aoa},{state.ages.aoai}")
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
    sp.add_argument("--warmup", type=int, default=None,
                    help="slots left out of the averages (default min(1000, slots // 10))")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("chain", help="truncated-chain average at one point")
    add_lambdas(sp)
    sp.add_argument("--metric", required=True, choices=_CHAIN_METRICS)
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
    sp.add_argument("--warmup", type=int, default=None)
    sp.add_argument("--tail-eps", type=float, default=1e-10, dest="tail_eps")
    sp.add_argument("--tol-rel", type=float, default=0.01, dest="tol_rel")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("validate", help="cross-method verification over a grid")
    sp.add_argument("--grid", required=True)
    sp.add_argument("--slots", type=int, default=1_000_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--warmup", type=int, default=None)
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
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, ConvergenceError, TruncationError, CapError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except AoaLabError as exc:  # safety net for future error types
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
