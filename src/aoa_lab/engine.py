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
reference semantics.  `run` and `run_batched` simulate long horizons in
chunks of slots, in two vectorised stages:

* the occupancy scan looks up 8-slot blocks of event codes in a table that
  composes the one-slot table of the same slot rules (`_step_core`), so one
  Python step per block carries the state; tests replay the scan against
  `step` bit for bit;
* the age sums are renewal-reward sums over the arrival and actuation slots:
  an age that restarts at a and runs n slots adds n*a + n*(n-1)/2, so no
  per-slot age is stored, and every batch sum is an exact integer.
"""

from __future__ import annotations

import csv
import functools
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

    Single source of the slot semantics: `step` calls it, and the 12-entry
    table `_TRANSITIONS` tabulates it for the simulator's scan and for the
    Markov-chain builders, which read their transitions from that table.
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

    Slots must be numbered consecutively from 1; blank lines take no number.
    Raises DomainError naming the offending line on any malformed content.
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
            if t != len(events) + 1:
                raise DomainError(f"line {lineno}: slot index must be {len(events) + 1}, got {t}")
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

_BLOCK = 8  # slots per block code: 8 two-bit event codes fill a uint16
_BLOCK_WEIGHTS = (4 ** np.arange(_BLOCK)).astype(np.uint16)


@functools.cache
def _block_table() -> tuple[np.ndarray, bytes]:
    """`_TRANSITIONS` composed over 8-slot blocks; built on first use.

    Index [state, block], where slot i of the block holds its event code in
    bits 2i..2i+1 of `block`.  Entry (little-endian uint64): byte i is the
    `_TRANSITIONS` entry of slot i, end-of-slot state | actuated << 2, so
    byte 7 also holds the state after the block.  Also returns those final
    states as bytes indexed by state << 16 | block, for the pass that
    carries the state from block to block.
    """
    step = np.frombuffer(_TRANSITIONS, dtype=np.uint8)
    block = np.arange(1 << 16)
    state = np.repeat(np.arange(3, dtype=np.uint8)[:, None], 1 << 16, axis=1)
    table = np.zeros((3, 1 << 16, _BLOCK), dtype=np.uint8)
    for i in range(_BLOCK):
        table[:, :, i] = step[state * 4 + ((block >> (2 * i)) & 3)]
        state = table[:, :, i] & 3
    table = table.view("<u8")[:, :, 0]
    table.flags.writeable = False
    return table, state.tobytes()


def _scan_events(code: np.ndarray, cache: int, battery: int):
    """Run the occupancy recursion over one chunk; returns (act, state, C, B).

    The codes are packed into 8-slot uint16 block codes, the tail padded with
    code 0 (no data, no energy), which leaves every state unchanged.  One
    Python pass over the blocks carries the state through `_block_table`;
    one gather of the blocks' entries then gives each slot's end-of-slot
    state and actuation bit.
    """
    k = len(code)
    n_blocks = -(-k // _BLOCK)
    padded = np.zeros(n_blocks * _BLOCK, dtype=np.uint16)
    padded[:k] = code
    blocks = padded.reshape(n_blocks, _BLOCK) @ _BLOCK_WEIGHTS
    table, final = _block_table()
    entry = cache * 2 + battery
    # The assignment expression carries the state through the comprehension,
    # which runs faster than a for loop that stores each entry by index.
    ends = bytes([entry := final[entry << 16 | b] for b in memoryview(blocks)])
    starts = np.empty(n_blocks, dtype=np.intp)
    starts[0] = cache * 2 + battery
    starts[1:] = np.frombuffer(ends, dtype=np.uint8)[:-1]
    packed = table[starts, blocks].view(np.uint8)[:k]
    return packed > 3, packed & 3, entry >> 1, entry & 1


def _age_sums(starts: np.ndarray, base, q: np.ndarray) -> np.ndarray:
    """Sum of an age over each slot range [q[i], q[i+1]), for sorted q.

    The age restarts at `base[j]` (a scalar `base` is used at every start)
    at slot `starts[j]`, sorted and at or before q[0], and grows by one each
    slot until the next start.  A segment that starts at age a and lasts n
    slots adds n*a + n*(n-1)/2, so only the start slots are needed, and every
    sum is an exact int64.
    """
    base = np.broadcast_to(base, starts.shape)
    j = np.searchsorted(starts, q, side="right") - 1
    m = q - starts[j]
    # Each range gains the part of its last segment before its end, loses
    # the part of its first segment before its start, and adds the whole
    # segments j[i] .. j[i+1]-1 in between.
    sums = np.diff(m * base[j] + m * (m - 1) // 2)
    n = np.diff(starts)
    for i in np.flatnonzero(np.diff(j)).tolist():
        lo, hi = j[i], j[i + 1]
        span = n[lo:hi]
        sums[i] += int(span @ base[lo:hi]) + (int(span @ span) - int(starts[hi] - starts[lo])) // 2
    return sums


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
    last_d = -1
    last_a = -1
    aoi_at_last_act = 1
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

        # Renewal-reward age sums from the event slots alone (chunk-local).
        # Each list of event slots is led by the carried last event, at a
        # negative slot.  Batch edges are query points; a batch outside the
        # chunk clips to an empty range.
        pd = np.flatnonzero(d)
        pa = np.flatnonzero(act)
        sd = np.concatenate(([last_d - done], pd))
        sa = np.concatenate(([last_a - done], pa))
        # The aoi at an actuation: sd[cumsum(d)[t]] is the last arrival at or
        # before slot t.
        aoi_at_act = pa - sd[np.cumsum(d, dtype=np.int32)[pa]] + 1
        q = np.clip(edges - done, 0, k)
        sI += _age_sums(sd, 1, q)
        sA += _age_sums(sa, 1, q)
        base_aoai = np.concatenate(([aoi_at_last_act], aoi_at_act))
        sAI += _age_sums(sa, base_aoai, q)

        lo_meas = max(warmup - done, 0)
        in_window = st[lo_meas:]
        battery_only, cache_only = (np.count_nonzero(in_window == s) for s in (1, 2))
        occupancy += [len(in_window) - battery_only - cache_only, battery_only, cache_only]
        actuations += len(pa) - int(np.searchsorted(pa, lo_meas))

        last_d = done + int(sd[-1])
        last_a = done + int(sa[-1])
        aoi_at_last_act = int(base_aoai[-1])
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
