"""Exact discrete-time simulator of the cache-and-battery actuator.

Slot mechanics, applied at the start of every slot:

1. Data availability is checked first: a packet is available if one is cached
   or one is freshly received this slot.  A fresh packet replaces any cached
   one, so the system always holds the freshest unactuated packet.
2. Energy availability is checked next: the battery, or a same-slot harvest.
3. If both are available the system actuates instantaneously.  Energy is
   drawn battery-first; a same-slot harvest can refill a battery that was
   just drained.  When the battery is empty, a same-slot harvest may be
   consumed directly.  An actuated packet is removed from the cache.
4. Unused resources persist up to capacity one: an unactuated available
   packet stays cached, an unconsumed harvest charges the battery (excess
   harvests are dropped).

End-of-slot ages: aoi resets to 1 on a fresh reception, else +1; aoa resets
to 1 on an actuation, else +1; aoai resets to the end-of-slot aoi on an
actuation (the age of the packet just consumed), else +1.

`step` / `run_trace` implement this one readable slot at a time and are the
reference semantics.  `run` and `run_batched` simulate long horizons by
scanning chunks of slots through a table tabulated from the same slot rules
(`_step_core`); tests replay the scan against `step` bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import AgeVector, Params, SlotEvents, SystemState
from .errors import DomainError

__all__ = [
    "EngineState",
    "RunSummary",
    "initial_state",
    "step",
    "run",
    "run_batched",
    "run_trace",
    "read_events_csv",
    "occupancy_distribution",
    "events_from_arrays",
]

_CHUNK = 1 << 21


@dataclass(frozen=True)
class EngineState:
    """Joint simulator state at a slot boundary: occupancy, ages, slot count."""

    system: SystemState
    ages: AgeVector
    slot: int


@dataclass(frozen=True)
class RunSummary:
    """Time averages of one seeded run.

    Averages are taken over the `slots - warmup` measured slots;
    `actuation_count` counts actuations in the same measured window.
    `mean_aoa <= mean_aoai` holds exactly (the bound holds per slot);
    `mean_aoi <= mean_aoa` is an equilibrium property that holds at long
    horizons for most of the parameter square but is provably violated by
    this model when data is scarce and energy plentiful.
    """

    slots: int
    mean_aoi: float
    mean_aoa: float
    mean_aoai: float
    actuation_count: int
    seed: int
    warmup: int


def initial_state() -> EngineState:
    """Canonical start state: empty cache and battery, all ages 1, slot 0."""
    return EngineState(SystemState(0, 0), AgeVector(1, 1, 1), 0)


def _step_core(cache: int, battery: int, data: int, energy: int):
    """One slot of occupancy dynamics; returns (cache', battery', actuated).

    Single source of the slot semantics: `step`, the scan table
    `_TRANSITIONS`, and the Markov-chain builders all derive their
    transitions from this function.
    """
    data_available = cache | data
    energy_available = battery | energy
    actuated = data_available & energy_available
    if actuated:
        # Battery-first draw; a same-slot harvest refills a drained battery.
        battery2 = energy if battery else 0
        cache2 = 0
    else:
        battery2 = battery | energy
        cache2 = data_available
    return cache2, battery2, actuated


def step(state: EngineState, events: SlotEvents) -> tuple[EngineState, bool]:
    """Advance one slot; returns the new end-of-slot state and whether it actuated."""
    d = int(events.data_arrived)
    e = int(events.energy_arrived)
    c2, b2, act = _step_core(state.system.cache, state.system.battery, d, e)
    aoi = 1 if d else state.ages.aoi + 1
    aoa = 1 if act else state.ages.aoa + 1
    aoai = aoi if act else state.ages.aoai + 1
    new = EngineState(SystemState(c2, b2), AgeVector(aoi, aoa, aoai), state.slot + 1)
    return new, bool(act)


def run_trace(events: Sequence[SlotEvents]) -> list[tuple[EngineState, bool]]:
    """Deterministic replay of an event sequence from the canonical start state."""
    if not events:
        raise DomainError("event sequence must be nonempty")
    out = []
    state = initial_state()
    for ev in events:
        state, act = step(state, ev)
        out.append((state, act))
    return out


def read_events_csv(path) -> list[SlotEvents]:
    """Parse an event-trace file: header `t,data,energy`, one {0,1} row per slot.

    Slots must be numbered consecutively from 1.  Raises DomainError naming
    the offending line on any malformed content.
    """
    events = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DomainError("line 1: empty file, expected header t,data,energy") from None
        if [h.strip().lower() for h in header] != ["t", "data", "energy"]:
            raise DomainError(f"line 1: expected header t,data,energy, got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise DomainError(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                t, d, e = (int(x.strip()) for x in row)
            except ValueError:
                raise DomainError(f"line {lineno}: non-integer value in {row!r}") from None
            if t != lineno - 1:
                raise DomainError(f"line {lineno}: slot index must be {lineno - 1}, got {t}")
            if d not in (0, 1) or e not in (0, 1):
                raise DomainError(f"line {lineno}: data and energy must be 0 or 1, got {d},{e}")
            events.append(SlotEvents(bool(d), bool(e)))
    if not events:
        raise DomainError("line 2: no event rows after header")
    return events


# ---------------------------------------------------------------------------
# Chunked simulation: a scan over packed event codes (bit0 = data, bit1 = energy).
# ---------------------------------------------------------------------------


def _transition_table() -> bytes:
    """`_step_core` tabulated for the scan.

    Index: state * 4 + code, with state = cache * 2 + battery (0=(0,0), 1=(0,1),
    2=(1,0)) and code = data | energy << 1.  Entry: state' | actuated << 2.
    """
    table = bytearray(12)
    for state in range(3):
        for code in range(4):
            c2, b2, act = _step_core(state >> 1, state & 1, code & 1, code >> 1)
            table[state * 4 + code] = (c2 * 2 + b2) | (act << 2)
    return bytes(table)


_TRANSITIONS = _transition_table()


def _scan_events(code: np.ndarray, cache: int, battery: int):
    """Run the occupancy recursion over one chunk; returns (act, state, C, B)."""
    table = _TRANSITIONS
    entry = cache * 2 + battery
    # The assignment expression carries the state through the comprehension,
    # which runs faster than a for loop that stores each entry by index.
    packed = np.frombuffer(
        bytes([entry := table[(entry & 3) * 4 + c] for c in code.tobytes()]), dtype=np.uint8)
    state = entry & 3
    return (packed >> 2).astype(bool), packed & 3, state >> 1, state & 1


@dataclass
class _RunAccumulator:
    """Exact integer tallies of a simulated run, split into measurement batches."""

    batch_edges: np.ndarray  # int64, length n_batches + 1, edges within [warmup, slots]
    sum_aoi: np.ndarray      # int64 per batch
    sum_aoa: np.ndarray
    sum_aoai: np.ndarray
    actuations: int
    occupancy: np.ndarray    # int64[3] end-of-slot (cache,battery) counts, measured window
    final_cache: int
    final_battery: int


def _simulate(p: Params, slots: int, seed: int, warmup: int, n_batches: int) -> _RunAccumulator:
    if slots <= warmup:
        raise DomainError(f"slots ({slots}) must exceed warmup ({warmup})")
    if warmup < 0:
        raise DomainError(f"warmup must be nonnegative, got {warmup}")
    measured = slots - warmup
    if n_batches < 1 or n_batches > measured:
        raise DomainError(f"n_batches must be in [1, {measured}], got {n_batches}")
    edges = warmup + (np.arange(n_batches + 1, dtype=np.int64) * measured) // n_batches

    rng = np.random.default_rng(seed)
    l1, l2 = p.lambda1, p.lambda2
    cache = battery = 0
    # Carries across chunks: global index of the last arrival / actuation
    # (-1 when none yet; the virtual slot -1 carries age 1) and the end-of-slot
    # aoi at the last actuation.
    last_d = np.int64(-1)
    last_a = np.int64(-1)
    aoi_at_last_act = np.int64(1)
    sI = np.zeros(n_batches, dtype=np.int64)
    sA = np.zeros(n_batches, dtype=np.int64)
    sAI = np.zeros(n_batches, dtype=np.int64)
    occupancy = np.zeros(3, dtype=np.int64)
    actuations = 0

    done = 0
    while done < slots:
        k = min(_CHUNK, slots - done)
        u = rng.random((k, 2))  # per slot: data draw first, then energy draw
        d = u[:, 0] < l1
        e = u[:, 1] < l2
        code = d.astype(np.uint8) | (e.astype(np.uint8) << 1)
        act, st, cache, battery = _scan_events(code, cache, battery)

        g = np.arange(done, done + k, dtype=np.int64)
        ld = np.maximum.accumulate(np.where(d, g, last_d))
        aoi = g - ld + 1
        la = np.maximum.accumulate(np.where(act, g, last_a))
        aoa = g - la + 1
        aoi_at_act = np.where(la >= done, aoi[np.maximum(la - done, 0)], aoi_at_last_act)
        aoai = aoi_at_act + (g - la)

        lo_meas = max(warmup - done, 0)
        if lo_meas < k:
            occupancy += np.bincount(st[lo_meas:], minlength=3)
            actuations += int(act[lo_meas:].sum())
            b_first = int(np.searchsorted(edges, done + lo_meas, side="right")) - 1
            b_last = int(np.searchsorted(edges, done + k - 1, side="right")) - 1
            for b in range(max(b_first, 0), min(b_last, n_batches - 1) + 1):
                lo = max(int(edges[b]) - done, lo_meas)
                hi = min(int(edges[b + 1]) - done, k)
                if hi > lo:
                    sI[b] += int(aoi[lo:hi].sum())
                    sA[b] += int(aoa[lo:hi].sum())
                    sAI[b] += int(aoai[lo:hi].sum())

        last_d = ld[-1]
        last_a = la[-1]
        if la[-1] >= done:
            aoi_at_last_act = aoi[la[-1] - done]
        done += k

    return _RunAccumulator(edges, sI, sA, sAI, actuations, occupancy, cache, battery)


def run(p: Params, slots: int, seed: int, warmup: int = 1000) -> RunSummary:
    """Simulate `slots` slots with a seeded generator and average the ages.

    Per slot the generator draws the data event first, then the energy event.
    The first `warmup` slots are excluded from the averages.  Identical
    (p, slots, seed, warmup) always produce a bit-identical summary.
    """
    return run_batched(p, slots, seed, warmup, n_batches=1)[0]


def run_batched(p: Params, slots: int, seed: int, warmup: int = 1000,
                n_batches: int = 20):
    """Like `run` but also return per-batch means and batch-means standard errors.

    Returns (RunSummary, means, stderrs) where means/stderrs are length-3
    arrays ordered (aoi, aoa, aoai) and the standard error comes from the
    sample standard deviation of the `n_batches` batch means (NaN when
    `n_batches` is 1).
    """
    acc = _simulate(p, slots, seed, warmup, n_batches=n_batches)
    measured = slots - warmup
    sizes = np.diff(acc.batch_edges).astype(float)
    summary = RunSummary(
        slots=slots,
        mean_aoi=int(acc.sum_aoi.sum()) / measured,
        mean_aoa=int(acc.sum_aoa.sum()) / measured,
        mean_aoai=int(acc.sum_aoai.sum()) / measured,
        actuation_count=acc.actuations,
        seed=seed,
        warmup=warmup,
    )
    means = np.array([summary.mean_aoi, summary.mean_aoa, summary.mean_aoai])
    stderrs = np.empty(3)
    for i, sums in enumerate((acc.sum_aoi, acc.sum_aoa, acc.sum_aoai)):
        bm = sums / sizes
        stderrs[i] = bm.std(ddof=1) / np.sqrt(n_batches) if n_batches > 1 else np.nan
    return summary, means, stderrs


def occupancy_distribution(p: Params, slots: int, seed: int, warmup: int = 1000) -> np.ndarray:
    """Empirical end-of-slot distribution over states [(0,0), (0,1), (1,0)]."""
    acc = _simulate(p, slots, seed, warmup, n_batches=1)
    return acc.occupancy / acc.occupancy.sum()


def events_from_arrays(data: Iterable[int], energy: Iterable[int]) -> list[SlotEvents]:
    """Zip two 0/1 sequences into SlotEvents; handy for fixtures and demos."""
    return [SlotEvents(bool(d), bool(e)) for d, e in zip(data, energy)]
