"""Cross-method verification and parameter-sweep findings.

Every metric can be computed by several independent routes: closed form,
seeded simulation, truncated-chain solve, and (for the actuation age) the
recursive series; `ROUTE_METRICS` says which route covers which metric.
`route_rows` runs one route at one parameter point and returns one `Row` per
metric, the long-format record that the CLI prints (one CSV line or JSON
object per row).  `cross_check` runs all requested routes at one point and
scores their pairwise agreement; `sweep` does that over a grid, with point i
of the sorted grid seeded `seed + i`, and summarizes the closed form's
findings: approximate symmetry, mean ordering, and the sign of each
neighbour step of the grid, along either axis (see `SweepReport`).

A point passes when, for every pair of routes, the relative disagreement is
below tol_rel AND the two 3-sigma-style intervals (value plus or minus three
times the route's uncertainty) overlap.  Uncertainty is the batch-means
standard error for simulation and the truncation/tail bound for the chain
and series routes.  The analytic route reports 0: its rational functions are
exact (the tests check them against the slot-rule table), and the rounding
of their float evaluation is not reported.  That rounding is about 1e-14 on
most of the square but grows toward the 0/0 corner (1, 1): 3e-12 at
(0.9999, 0.9999).  The overlap clause is a genuine statistical test: a
simulated mean over `N_BATCHES` = 20 batch means is t-distributed with 19
degrees of freedom, so a correct simulation lands more than three standard
errors from an exact route with probability 2 * t.sf(3, 19) = 0.0074 per
comparison.  Isolated failures at about that 0.74 percent rate are expected
sampling fluctuations.

`sweep` spreads the points over a pool of `default_workers()` processes, at
most one per point.  Its report depends neither on the worker count nor on
the host's CPU count: each worker's numerics run on one thread, since no
route passes BLAS a vector long enough for BLAS to split across its threads
(see `chains.mean_age`) and the workers' simulations draw in place.  Outside
a pool, a simulation draws each next chunk on one helper thread
(`engine._draws_ahead`), which consumes the generator in the same order and
changes no draw.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import analytic, chains, engine
from .core import Params
from .errors import DomainError

__all__ = [
    "CrossCheckResult",
    "ROUTE_METRICS",
    "Row",
    "SweepReport",
    "cross_check",
    "route_rows",
    "sweep",
    "grid_range",
]

METHOD_ORDER = ("analytic", "sim", "chain", "series")
METRICS = ("aoi", "aoa", "aoai")
# The metrics each route computes: the only statement of route coverage.
ROUTE_METRICS = {"analytic": METRICS, "sim": METRICS, "chain": ("aoa", "aoai"),
                 "series": ("aoa",)}
SERIES_ROUNDING_BOUND = 1e-12
# Batch count of the batch-means standard error of every simulation route.
N_BATCHES = 20
# Most values one `A:B:STEP` grid range may give.  Step 0.001 over the CLI's
# rate range [0.01, 1] gives 991; a larger count is a mistyped step, and the
# list of grid points grows as its square.
MAX_GRID_VALUES = 1000


@dataclass(frozen=True)
class Row:
    """One route's value of one metric at one point; fields in CSV-header order.

    `uncertainty` is the route's error measure (see the module docstring).
    `slots` and `seed` are set on simulation rows only, `cap` on chain rows
    only; the other routes leave them None.
    """

    lambda1: float
    lambda2: float
    method: str
    metric: str
    value: float
    uncertainty: float
    slots: Optional[int] = None
    seed: Optional[int] = None
    cap: Optional[int] = None


def route_rows(
    p: Params,
    method: str,
    metrics: Sequence[str] = METRICS,
    *,
    slots: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: Optional[int] = None,
    tail_eps: float = 1e-10,
    cap: Optional[int] = None,
) -> list[Row]:
    """Run one route at `p`: a `Row` for each of `metrics` that it covers.

    Rows follow the order of `metrics`; metrics outside
    `ROUTE_METRICS[method]` are skipped.  The simulation route needs `slots`
    and `seed` and leaves out the first `warmup` slots (default
    min(1000, slots // 10)); its measured slots are split into
    min(`N_BATCHES`, slots - warmup) batches, and a run too short for two
    batches reports uncertainty 0.0.  The chain route truncates at `cap`, or
    at `chains.choose_cap(p, tail_eps)` when `cap` is None.  An unknown
    method, or the simulation route without `slots` or `seed` or with
    `slots` not positive, raises DomainError.
    """
    if method not in ROUTE_METRICS:
        raise DomainError(f"method must be one of {METHOD_ORDER}, got {method!r}")
    if method == "sim" and (slots is None or seed is None):
        raise DomainError(f"the sim route needs slots and seed, got slots={slots}, seed={seed}")
    if method == "sim" and slots <= 0:  # before the default warmup is taken from it
        raise DomainError(f"slots must be positive, got {slots}")
    wanted = [m for m in metrics if m in ROUTE_METRICS[method]]
    row = functools.partial(Row, p.lambda1, p.lambda2, method)
    if method == "analytic":
        ref = analytic.averages(p)
        return [row(m, getattr(ref, f"{m}_bar"), 0.0) for m in wanted]
    if method == "sim":
        if warmup is None:
            warmup = min(1000, slots // 10)
        nb = max(1, min(N_BATCHES, slots - warmup))
        _, means, stderrs = engine.run_batched(p, slots, seed, warmup, n_batches=nb)
        est = {m: (float(v), float(s) if nb > 1 else 0.0)
               for m, v, s in zip(METRICS, means, stderrs)}
        return [row(m, *est[m], slots=slots, seed=seed) for m in wanted]
    if method == "chain":
        if cap is None:
            cap = chains.choose_cap(p, tail_eps)
        out = []
        for m in wanted:
            builder = chains.build_aoa_chain if m == "aoa" else chains.build_aoai_chain
            chain = builder(p, cap)
            out.append(row(m, *chains.mean_age(chains.stationary(chain), chain), cap=cap))
        return out
    return [row(m, chains.aoa_series_mean(p), SERIES_ROUNDING_BOUND) for m in wanted]


def _wide(method: str, attr: str) -> property:
    return property(lambda self: next(
        (getattr(r, attr) for r in self.routes if r.method == method), None))


@dataclass(frozen=True)
class CrossCheckResult:
    """Agreement scorecard of one metric at one parameter point.

    `routes` holds one `Row` per route that ran and covers `metric`, in
    `METHOD_ORDER`; the analytic row is always first.  `passed` is the
    pairwise-agreement verdict described in the module docstring.
    """

    params: Params
    metric: str
    routes: tuple[Row, ...]
    max_rel_disagreement: float = 0.0
    passed: bool = True

    # Read-only wide view of `routes` (None where a route is absent), kept
    # only because the benchmark's `perfbench/workload.py::check_validate`
    # reads these names; delete them once it reads `routes`.
    analytic = _wide("analytic", "value")
    simulated = _wide("sim", "value")
    sim_stderr = _wide("sim", "uncertainty")
    chain = _wide("chain", "value")
    chain_bound = _wide("chain", "uncertainty")
    chain_cap = _wide("chain", "cap")
    series = _wide("series", "value")
    series_bound = _wide("series", "uncertainty")


@dataclass(frozen=True)
class SweepReport:
    """Grid-wide cross-check rows plus the qualitative findings.

    aoa_nonmonotone_witnesses lists the (axis, fixed, low, high) neighbour
    steps where the closed-form actuation age rises: `axis` ("lambda1" or
    "lambda2") goes from `low` to its next grid value `high`, the other rate
    at `fixed`; aoai_monotone says the actuated-information age falls on all.
    ordering_violations lists (lambda1, lambda2, description) where the mean
    ordering aoi <= aoa <= aoai fails; the first leg genuinely fails in the
    data-scarce / energy-rich corner of the parameter square.
    symmetry_max_rel_dev is reported, never asserted: the closed forms are
    only approximately symmetric in their arguments.
    """

    rows: tuple
    symmetry_max_rel_dev: float
    aoa_nonmonotone_witnesses: tuple
    aoai_monotone: bool
    ordering_violations: tuple = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _pairwise_verdict(entries, tol_rel: float) -> tuple[float, bool]:
    """Max relative disagreement and pass flag over all route pairs.

    Pass requires both clauses for every pair: relative disagreement below
    tol_rel, and overlap of the intervals value +- 3 * uncertainty.
    """
    max_rel = 0.0
    ok = True
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            va, ua = entries[i]
            vb, ub = entries[j]
            scale = max(abs(va), abs(vb))
            diff = abs(va - vb)
            rel = diff / scale if scale > 0.0 else 0.0
            max_rel = max(max_rel, rel)
            if rel >= tol_rel or diff > 3.0 * (ua + ub):
                ok = False
    return max_rel, ok


def cross_check(
    p: Params,
    slots: int,
    seed: int,
    tol_rel: float = 0.01,
    methods: Sequence[str] = METHOD_ORDER,
    warmup: Optional[int] = None,
    tail_eps: float = 1e-10,
) -> list[CrossCheckResult]:
    """Compute each metric by every requested route; returns one result per metric.

    The analytic route always runs, whatever `methods` says.  `tol_rel` must
    be positive.  An undersampled run that misses tolerance yields
    passed=False rather than an error; solver failures (ConvergenceError,
    TruncationError, CapError) propagate.
    """
    unknown = set(methods) - set(METHOD_ORDER)
    if unknown:
        raise DomainError(f"unknown methods: {sorted(unknown)}")
    if not tol_rel > 0.0:
        raise DomainError(f"tol_rel must be positive, got {tol_rel}")
    rows = [r for m in METHOD_ORDER if m == "analytic" or m in methods
            for r in route_rows(p, m, slots=slots, seed=seed, warmup=warmup,
                                tail_eps=tail_eps)]
    results = []
    for metric in METRICS:
        routes = tuple(r for r in rows if r.metric == metric)
        max_rel, ok = _pairwise_verdict([(r.value, r.uncertainty) for r in routes], tol_rel)
        results.append(CrossCheckResult(p, metric, routes, max_rel, ok))
    return results


def grid_range(spec: str) -> list[float]:
    """Parse `A:B:STEP` into inclusive grid values (endpoint kept when STEP divides B-A).

    Raises DomainError on non-finite parts and on a range of more than
    `MAX_GRID_VALUES` values, before any value is built.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid range must be A:B:STEP, got {spec!r}")
    try:
        a, b, step = (float(x) for x in parts)
    except ValueError:
        raise DomainError(f"grid range must be numeric, got {spec!r}") from None
    if not all(math.isfinite(x) for x in (a, b, step)):
        raise DomainError(f"grid range must be finite, got {spec!r}")
    if step <= 0.0 or b < a:
        raise DomainError(f"grid range needs A <= B and STEP > 0, got {spec!r}")
    top = b + 1e-9
    # Steps from A to the slack above B; inf when the quotient overflows.
    span = (top - a) / step
    if not span < MAX_GRID_VALUES:
        raise DomainError(f"grid range gives more than {MAX_GRID_VALUES} values, "
                          f"got {spec!r}")
    # One index past the quotient covers its rounding; the filter keeps the
    # values a + k * STEP within the slack above B.
    return [round(a + k * step, 12) for k in range(int(span) + 2) if a + k * step <= top]


def _point_worker(args):
    p, slots, seed, tol_rel, methods, warmup, tail_eps = args
    return cross_check(p, slots, seed, tol_rel, methods, warmup, tail_eps)


def _neighbour_steps(keys):
    """Yield `((axis, fixed, low, high), lo, hi)` per neighbour step, along lambda1 first."""
    for axis, fixed in (("lambda1", 1), ("lambda2", 0)):
        line = sorted(keys, key=lambda k: (k[fixed], k[1 - fixed]))
        for lo, hi in zip(line, line[1:]):
            if lo[fixed] == hi[fixed]:
                yield (axis, lo[fixed], lo[1 - fixed], hi[1 - fixed]), lo, hi


def _findings(points: Sequence[Params]):
    """Closed-form findings over the grid: symmetry, monotonicity, ordering."""
    avg = {(p.lambda1, p.lambda2): analytic.averages(p) for p in points}
    sym_dev = 0.0
    for (a, b), m in avg.items():
        mirrored = analytic.averages(Params(b, a))
        sym_dev = max(sym_dev,
                      abs(m.aoa_bar - mirrored.aoa_bar) / m.aoa_bar,
                      abs(m.aoai_bar - mirrored.aoai_bar) / m.aoai_bar)

    steps = list(_neighbour_steps(avg))
    witnesses = tuple(step for step, lo, hi in steps if avg[lo].aoa_bar < avg[hi].aoa_bar)
    monotone = not any(avg[hi].aoai_bar >= avg[lo].aoai_bar for _, lo, hi in steps)

    violations = []
    for (a, b), m in sorted(avg.items()):
        if m.aoi_bar > m.aoa_bar:
            violations.append((a, b, f"aoi_bar {m.aoi_bar:.6g} > aoa_bar {m.aoa_bar:.6g}"))
        if m.aoa_bar > m.aoai_bar:
            violations.append((a, b, f"aoa_bar {m.aoa_bar:.6g} > aoai_bar {m.aoai_bar:.6g}"))
    return sym_dev, tuple(witnesses), monotone, tuple(violations)


def default_workers() -> int:
    """`AOA_LAB_THREADS` if set, else the number of CPUs this process may use."""
    env = os.environ.get("AOA_LAB_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"AOA_LAB_THREADS must be an integer, got {env!r}") from None
    return engine._usable_cpus()


def sweep(
    points: Sequence[Params],
    methods: Sequence[str],
    slots: int,
    seed: int,
    tol_rel: float = 0.01,
    warmup: Optional[int] = None,
    tail_eps: float = 1e-10,
    max_workers: Optional[int] = None,
) -> SweepReport:
    """Cross-check every grid point and assemble the findings report.

    Points are evaluated in sorted order with per-point seeds seed + index,
    and no route's numbers depend on its thread count, so the report is
    deterministic for fixed inputs regardless of the worker count
    (`max_workers`, default `default_workers()`) and of the CPUs it may use.
    """
    if not points:
        raise DomainError("sweep needs at least one grid point")
    pts = sorted(points, key=lambda p: (p.lambda1, p.lambda2))
    jobs = [(p, slots, seed + i, tol_rel, tuple(methods), warmup, tail_eps)
            for i, p in enumerate(pts)]
    workers = min(default_workers() if max_workers is None else max(1, max_workers), len(jobs))
    if workers > 1:
        # Forked workers inherit what this process has set up, so build the
        # scan's block table and import the chain solver once, here, rather
        # than once in every worker of every pool.
        if "sim" in methods:
            engine._block_table()
        if "chain" in methods:
            chains._splu()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_point = list(pool.map(_point_worker, jobs))
    else:
        per_point = [_point_worker(j) for j in jobs]
    rows = tuple(r for triple in per_point for r in triple)
    sym_dev, witnesses, monotone, violations = _findings(pts)
    return SweepReport(
        rows=rows,
        symmetry_max_rel_dev=sym_dev,
        aoa_nonmonotone_witnesses=witnesses,
        aoai_monotone=monotone,
        ordering_violations=violations,
    )
