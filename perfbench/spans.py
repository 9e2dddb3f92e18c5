"""In-memory spans around the public functions of each aoa_lab layer.

A `Tracer` replaces module attributes (`aoa_lab.engine.run_batched`, ...)
with wrappers that record one span per call: name, start, end, parent span,
op id, process id and a few counters read from the call's arguments or
result.  The package calls these functions through module attributes, so the
wrappers see every call, and `ProcessPoolExecutor` forks its workers from the
patched process, so they run inside `validate`'s pool workers too.

A pool worker cannot append to the parent's list.  Instead the wrapper of
`validation.cross_check` (the function each worker runs once per grid point)
hands its result back as a `_Shipped` list that carries the worker's spans.
When the parent unpickles that result, `_receive` moves the spans into the
active tracer and returns the plain list the program expects.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import time


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _chain_counts(fn, args, kwargs, chain) -> dict:
    return {"states": len(chain.states), "nnz": int(chain.matrix.nnz), "cap": chain.level_cap}


def _default_workers(fn, args, kwargs) -> int:
    import aoa_lab.validation as validation

    workers = _bound_args(fn, args, kwargs)["max_workers"]
    return validation.default_workers() if workers is None else max(1, workers)


# (module, function, counters(fn, args, kwargs, result) -> dict, ships spans)
TRACED = (
    ("cli", "main", None, False),
    ("analytic", "averages", None, False),
    ("engine", "run_batched",
     lambda fn, a, k, r: {"slots": int(_bound_args(fn, a, k)["slots"])}, False),
    ("chains", "choose_cap", None, False),
    ("chains", "build_aoa_chain", _chain_counts, False),
    ("chains", "build_aoai_chain", _chain_counts, False),
    ("chains", "stationary", lambda fn, a, k, r: {"residual": float(r.residual)}, False),
    ("chains", "mean_age", None, False),
    ("chains", "aoa_series_mean", None, False),
    ("validation", "cross_check", None, True),
    ("validation", "sweep",
     lambda fn, a, k, r: {"rows": len(r.rows),
                          "fail_rows": sum(not row.passed for row in r.rows),
                          "workers": _default_workers(fn, a, k)}, False),
)

# The tracer that `_receive` hands shipped spans to.  Unpickling calls a
# module-level function, so this one reference has to be global.
_active = None


def _receive(rows, spans):
    if _active is not None:
        _active.spans.extend(spans)
    return rows


class _Shipped(list):
    """A pool worker's result list plus the spans the worker recorded for it."""

    def __init__(self, rows, spans):
        super().__init__(rows)
        self.spans = spans

    def __reduce__(self):
        return _receive, (list(self), self.spans)


class Tracer:
    """Records spans while installed; `op` tags every span with the current op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._stack: list[str] = []
        self._ids = itertools.count()
        self._owner = os.getpid()
        self._originals: list[tuple] = []

    def install(self) -> None:
        global _active
        import importlib

        for mod_name, fn_name, counters, ships in TRACED:
            module = importlib.import_module(f"aoa_lab.{mod_name}")
            fn = getattr(module, fn_name)
            self._originals.append((module, fn_name, fn))
            setattr(module, fn_name,
                    self._wrap(fn, f"{mod_name}.{fn_name}", counters, ships))
        _active = self

    def uninstall(self) -> None:
        global _active
        for module, fn_name, fn in reversed(self._originals):
            setattr(module, fn_name, fn)
        self._originals.clear()
        _active = None

    def _wrap(self, fn, name, counters, ships):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pid = os.getpid()
            sid = f"{pid}.{next(self._ids)}"
            parent = self._stack[-1] if self._stack else None
            mark = len(self.spans)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = {"id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "op": self.op, "pid": pid}
            if counters is not None:
                span.update(counters(fn, args, kwargs, result))
            self.spans.append(span)
            if ships and pid != self._owner:
                shipped = self.spans[mark:]
                del self.spans[mark:]
                return _Shipped(result, shipped)
            return result

        return wrapper


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children of one span may overlap (pool workers run in parallel), so the
    covered part is the union of the children's intervals, clipped to the
    parent's.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list] = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            children.setdefault(s["parent"], []).append(
                (max(s["start"], parent["start"]), min(s["end"], parent["end"])))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], ()))
            for s in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of the spans of one op (see perfbench/README.md)."""
    self_s = self_times(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total_self(name):
        return sum(self_s[s["id"]] for s in named(name))

    engine_self = total_self("engine.run_batched")
    slots = sum(s["slots"] for s in named("engine.run_batched"))
    built = named("chains.build_aoa_chain") + named("chains.build_aoai_chain")
    sweeps = named("validation.sweep")
    sweep_s = sum(s["end"] - s["start"] for s in sweeps)
    busy = sum(s["end"] - s["start"] for s in named("validation.cross_check"))
    worker_s = sum(s["workers"] * (s["end"] - s["start"]) for s in sweeps)
    out = {
        "engine.run_batched.self_s": engine_self,
        "engine.run_batched.calls": len(named("engine.run_batched")),
        "engine.slots": slots,
        "engine.slots_per_s": slots / engine_self if engine_self > 0 else 0.0,
        "chains.states": sum(s["states"] for s in built),
        "chains.nnz": sum(s["nnz"] for s in built),
        "chains.cap": max((s["cap"] for s in built), default=0),
        "chains.residual_max": max((s["residual"] for s in named("chains.stationary")),
                                   default=0.0),
        "analytic.averages.calls": len(named("analytic.averages")),
        "validation.sweep.s": sweep_s,
        "validation.cross_check.calls": len(named("validation.cross_check")),
        "validation.pool_busy_ratio": busy / worker_s if worker_s > 0 else 0.0,
        "validation.rows": sum(s["rows"] for s in sweeps),
        "validation.fail_rows": sum(s["fail_rows"] for s in sweeps),
    }
    for name in ("chains.build_aoai_chain", "chains.build_aoa_chain", "chains.stationary",
                 "chains.mean_age", "chains.choose_cap", "chains.aoa_series_mean",
                 "analytic.averages", "validation.cross_check", "cli.main"):
        out[f"{name}.self_s"] = total_self(name)
    return out
