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
chunks of slots, in three vectorised stages:

* the events are drawn in pieces of `_DRAW` slots into one small buffer
  and thresholded into the chunk's data and energy flags.  Where a second
  CPU may run it, one helper thread draws chunk i+1 into a second set of
  flags while the calling thread scans chunk i and takes its age sums; the
  helper alone touches the generator and draws the chunks in order, so
  every seeded result is the same either way;
* the occupancy scan bit-packs the data and energy flags into 8-slot
  blocks and looks them up in a table that composes the one-slot table of
  the same slot rules (`_step_core`).  It runs on two levels: vectorised
  gathers compose the maps of groups of 64 blocks, one Python step per group
  carries the state, and more gathers hand each block its start state.
  Tests replay it against `step` bit for bit;
* the age sums are renewal-reward sums over the arrival and actuation slots:
  an age that restarts at a and runs n slots adds n*a + n*(n-1)/2, so no
  per-slot age is stored, and every batch sum is an exact integer.

`_replay` is the one loop over chunks: it alone carries the state across
chunk edges and works out each actuation's packet, from the scan's cache
states.  `run_batched` sums the ages over its events; `trace` expands them
to one row per slot (`_trace_columns`).
"""

from __future__ import annotations

import csv
import functools
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

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
]

# Slots per chunk of the scan and the age sums.  A chunk's temporaries take a
# few MiB, within a few L2 caches (2 MiB per core on the Xeon of the timings in
# CHANGES.md) rather than tens of MB.  Smaller chunks save memory but slow
# sparse-rate runs, whose per-chunk overhead dominates: a 10^7-slot run at
# (0.05, 0.05) took 0.128 s at 2^18 slots, 0.136 s at 2^17 and 0.159 s at 2^16.
_CHUNK = 1 << 18
# Slots per draw.  A chunk's events are drawn in pieces of this many slots
# into one 512 KiB buffer, two float64 draws per slot, and thresholded into
# the chunk's flags, so no chunk-long float buffer is ever held.  Results do
# not depend on either size.
_DRAW = 1 << 15
# Slots per piece of `trace`'s replay, each printed whole: a 600 000-row
# `--json` trace peaked at 44.4 MiB resident at 2^12, 52.5 at 2^14, 60.5 at 2^15.
_TRACE_PIECE = 1 << 12


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


# The four possible events of a slot, indexed by (data, energy).  The rows of
# an events file share them, so a long file costs one list entry per slot.
_SLOT_EVENTS = {(d, e): SlotEvents(bool(d), bool(e)) for d in (0, 1) for e in (0, 1)}


def read_events_csv(path) -> list[SlotEvents]:
    """Parse an event-trace file: header `t,data,energy`, one {0,1} row per slot.

    Slots must be numbered consecutively from 1; blank lines take no number.
    Raises DomainError naming the offending line on any malformed content.
    Equal rows share one `SlotEvents` instance.
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
            events.append(_SLOT_EVENTS[d, e])
    if not events:
        raise DomainError("line 2: no event rows after header")
    return events


# ---------------------------------------------------------------------------
# Chunked simulation: a scan over bit-packed data and energy flags.
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

_BLOCK = 8  # slots per block: a byte of data bits and a byte of energy bits
_GROUP = 64  # blocks per group of the scan's first level


@functools.cache
def _block_table() -> tuple[np.ndarray, np.ndarray]:
    """`_TRANSITIONS` composed over 8-slot blocks; built on first use.

    A block is `data bits | energy bits << 8`, bit i of each byte holding
    slot i, so `np.packbits(..., bitorder="little")` of the data and energy
    flags gives the two bytes.  Both returned arrays are indexed by
    `block << 2 | state` (index 3 of each block repeats state 0 and is never
    read):

    * `table`, little-endian uint64: byte i is the `_TRANSITIONS` entry of
      slot i, end-of-slot state | actuated << 2;
    * `final`, uint8: the state after the block, for the passes that carry
      the state from block to block.
    """
    step = np.frombuffer(_TRANSITIONS, dtype=np.uint8)
    block = np.arange(1 << 16)[:, None]
    state = np.array([0, 1, 2, 0], dtype=np.uint8)[None, :]
    table = np.zeros((1 << 16, 4, _BLOCK), dtype=np.uint8)
    for i in range(_BLOCK):
        code = (block >> i & 1) | (block >> (_BLOCK + i) & 1) << 1
        table[:, :, i] = step[state * 4 + code]
        state = table[:, :, i] & 3
    table = table.view("<u8").ravel()
    final = state.ravel()
    table.flags.writeable = final.flags.writeable = False
    return table, final


def _scan_events(data: np.ndarray, energy: np.ndarray, cache: int, battery: int):
    """Run the occupancy recursion over one chunk; returns (act, state, C, B).

    The data and energy flags are bit-packed into 8-slot blocks, the tail
    padded with empty slots, which leave every state unchanged.  The scan has
    two levels over groups of 64 blocks.  First, 64 vectorised gathers in
    `_block_table`'s final states compose each group's map from the 3 start
    states to its end state, and one Python pass over the groups carries the
    state through those maps.  Then 64 more gathers give each block's start
    state, and one gather of the blocks' table entries gives each slot's
    end-of-slot state and actuation bit.
    """
    k = len(data)
    table, final = _block_table()
    n_blocks = -(-k // _BLOCK)
    n_groups = -(-n_blocks // _GROUP)
    bits = np.zeros((n_groups * _GROUP, 2), dtype=np.uint8)
    bits[:n_blocks, 0] = np.packbits(data, bitorder="little")
    bits[:n_blocks, 1] = np.packbits(energy, bitorder="little")
    # Row j holds block j of every group, shifted to leave the state's 2 bits.
    rows = bits.view("<u2").reshape(n_groups, _GROUP).T.astype(np.intp, order="C") << 2
    maps = np.tile(np.arange(3, dtype=np.uint8), (n_groups, 1))  # [group, start state]
    for row in rows:
        maps = final[row[:, None] + maps]
    group_maps = maps.tobytes()
    entry = cache * 2 + battery
    # The assignment expression carries the state through the comprehension,
    # which runs faster than a for loop that stores each entry by index.
    ends = bytes([entry := group_maps[g + entry] for g in range(0, 3 * n_groups, 3)])
    state = np.empty(n_groups, dtype=np.uint8)
    state[0] = cache * 2 + battery
    state[1:] = np.frombuffer(ends, dtype=np.uint8)[:-1]
    index = np.empty_like(rows)
    for row, out in zip(rows, index):
        np.add(row, state, out=out)
        state = final[out]
    packed = table[index.T.ravel()].view(np.uint8)[:k]
    return packed > 3, packed & 3, entry >> 1, entry & 1


def _replay(chunks):
    """Scan consecutive (data, energy) flag chunks from the canonical start.

    Yields per chunk the scan's `act` and `st`, and in chunk-local slots the
    arrivals `sd`, the actuations `sa` and the end-of-slot aoi `base` at each
    actuation, each led by the last one of the earlier chunks (before any:
    slot -1, the virtual slot of age 1, and aoi 1).  A chunk's flags are not
    read once the next chunk is asked for.
    """
    cache = battery = 0
    last_d = last_a = -1
    aoi_at_last_act = 1
    done = 0
    for d, e in chunks:
        k = len(d)
        cache_in = cache
        act, st, cache, battery = _scan_events(d, e, cache, battery)
        pd = np.flatnonzero(d)
        pa = np.flatnonzero(act)
        sd = np.concatenate(([last_d - done], pd))
        sa = np.concatenate(([last_a - done], pa))
        # The aoi at an actuation.  The cache holds the last arrival until it
        # is actuated, so an arrival is actuated, once, iff the cache is empty
        # when the next arrival comes (or at the chunk end): the actuated
        # arrivals, in order, are the packets of `pa`.  The carried arrival
        # counts only if it was still cached when the chunk began.
        held = np.empty(k, dtype=bool)  # the cache at the end of slot t - 1
        held[0] = cache_in
        np.equal(st[:-1], 2, out=held[1:])
        used = np.empty(len(sd), dtype=bool)  # sd[j] is actuated in this chunk
        np.logical_not(held[pd], out=used[:-1])
        used[-1] = not cache
        used[0] &= bool(cache_in)
        base = np.concatenate(([aoi_at_last_act], pa - sd[used] + 1))
        yield act, st, sd, sa, base
        last_d = done + int(sd[-1])
        last_a = done + int(sa[-1])
        aoi_at_last_act = int(base[-1])
        done += k


def _trace_columns(data: np.ndarray, energy: np.ndarray):
    """`run_trace` of whole flag arrays, on `_replay`: yields int64 rows of
    (slot, data, energy, cache, battery, actuated, aoi, aoa, aoai), one array
    per piece of `_TRACE_PIECE` slots.  From each event of `_replay` to the
    next, the aoi and aoa grow from 1 and the aoai from `base`.
    """
    starts = range(0, len(data), _TRACE_PIECE)
    pieces = [(data[lo:lo + _TRACE_PIECE], energy[lo:lo + _TRACE_PIECE]) for lo in starts]
    for lo, (d, e), (act, st, sd, sa, base) in zip(starts, pieces, _replay(pieces)):
        t = np.arange(len(d))
        arrived = np.repeat(sd, np.diff(sd.clip(0), append=len(d)))
        spans = np.diff(sa.clip(0), append=len(d))
        acted, aoi_at_act = np.repeat(sa, spans), np.repeat(base, spans)
        yield np.column_stack((lo + t + 1, d, e, st >> 1, st & 1, act,
                               t - arrived + 1, t - acted + 1, t - acted + aoi_at_act))


def _age_sums(starts: np.ndarray, bases, q: np.ndarray) -> np.ndarray:
    """Sums of ages over each slot range [q[i], q[i+1]), for sorted q.

    Returns one row per entry of `bases`.  Each age restarts at `base[j]` (a
    scalar `base` is used at every start) at slot `starts[j]`, sorted and at
    or before q[0], and grows by one each slot until the next start.  A
    segment that starts at age a and lasts n slots adds n*a + n*(n-1)/2, so
    only the start slots are needed, and every sum is an exact int64.  The
    search and the gaps between starts are shared by all the bases.
    """
    j = np.searchsorted(starts, q, side="right") - 1
    m = q - starts[j]
    # Each range gains the part of its last segment before its end, loses
    # the part of its first segment before its start, and adds the whole
    # segments j[i] .. j[i+1]-1 in between.
    ramp = np.diff(m * (m - 1) // 2)
    n = np.diff(starts)
    hops = [(i, j[i], j[i + 1]) for i in np.flatnonzero(np.diff(j)).tolist()]
    for i, lo, hi in hops:
        span = n[lo:hi]
        ramp[i] += (int(span @ span) - int(starts[hi] - starts[lo])) // 2
    sums = np.empty((len(bases), len(ramp)), dtype=np.int64)
    for row, base in zip(sums, bases):
        if np.ndim(base) == 0:  # `base` counts once in every slot of a range
            row[:] = ramp + base * np.diff(q)
        else:
            row[:] = ramp + np.diff(m * base[j])
            for i, lo, hi in hops:
                row[i] += int(n[lo:hi] @ base[lo:hi])
    return sums


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask, if any."""
    if hasattr(os, "sched_getaffinity"):  # not every platform has one
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _draws_ahead() -> bool:
    """Whether `_simulate` draws each next chunk on a helper thread.

    Only where this process may run on more than one CPU, and not in a
    `multiprocessing` worker: `validation.sweep`'s pool already runs one
    worker process per usable CPU, and a helper thread in each slowed it down.
    """
    return _usable_cpus() > 1 and multiprocessing.parent_process() is None


def _draw_chunk(rng, u: np.ndarray, flags: np.ndarray, l1: float, l2: float) -> np.ndarray:
    """Draw one chunk's events into `flags`, a (2, k) bool array; returns it.

    The chunk is drawn in pieces of `len(u)` slots into the float buffer `u`,
    which consumes the generator exactly as `rng.random((k, 2))` does: per
    slot the data draw first, then the energy draw.
    """
    d, e = flags
    k = flags.shape[1]
    for lo in range(0, k, len(u)):
        piece = u[:min(len(u), k - lo)]
        rng.random(out=piece)
        np.less(piece[:, 0], l1, out=d[lo:lo + len(piece)])
        np.less(piece[:, 1], l2, out=e[lo:lo + len(piece)])
    return flags


@dataclass
class _RunAccumulator:
    """Exact integer tallies of a simulated run, split into measurement batches."""

    batch_edges: np.ndarray  # int64, length n_batches + 1, edges within [warmup, slots]
    sum_aoi: np.ndarray      # int64 per batch
    sum_aoa: np.ndarray
    sum_aoai: np.ndarray
    actuations: int


def _simulate(p: Params, slots: int, seed: int, warmup: int, n_batches: int) -> _RunAccumulator:
    if slots <= warmup:
        raise DomainError(f"slots ({slots}) must exceed warmup ({warmup})")
    if warmup < 0:
        raise DomainError(f"warmup must be nonnegative, got {warmup}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    measured = slots - warmup
    if n_batches < 1 or n_batches > measured:
        raise DomainError(f"n_batches must be in [1, {measured}], got {n_batches}")
    edges = warmup + (np.arange(n_batches + 1, dtype=np.int64) * measured) // n_batches

    rng = np.random.default_rng(seed)
    l1, l2 = p.lambda1, p.lambda2
    sI = np.zeros(n_batches, dtype=np.int64)
    sA = np.zeros(n_batches, dtype=np.int64)
    sAI = np.zeros(n_batches, dtype=np.int64)
    actuations = 0

    # One draw buffer and one or two pairs of flag buffers for every chunk:
    # fresh ones would fault in their pages each time.  Drawing ahead, the
    # helper thread draws chunk i+1 into the second pair while the calling
    # thread scans chunk i.  Drawing in place, the calling thread draws chunk
    # i+1 into the one pair once the scan of chunk i is done.  Either way,
    # one thread draws every chunk, in order.
    ahead = _draws_ahead()
    chunk = min(_CHUNK, slots)
    u = np.empty((min(_DRAW, chunk), 2))
    flags = np.empty((2 if ahead else 1, 2, chunk), dtype=bool)

    def draw(lo: int) -> np.ndarray:
        pair = flags[lo // chunk % len(flags), :, :min(chunk, slots - lo)]
        return _draw_chunk(rng, u, pair, l1, l2)

    def drawn(helper):
        if ahead:
            pending = helper.submit(draw, 0)
        for lo in range(0, slots, chunk):
            d, e = pending.result() if ahead else draw(lo)
            if ahead and lo + chunk < slots:
                pending = helper.submit(draw, lo + chunk)
            yield d, e

    with ThreadPoolExecutor(1) if ahead else nullcontext() as helper:
        lo = 0
        for act, st, sd, sa, base in _replay(drawn(helper)):
            # Renewal-reward age sums from the event slots alone.  Batch edges
            # are query points; a batch outside the chunk clips to empty.
            q = np.clip(edges - lo, 0, chunk)
            sI += _age_sums(sd, (1,), q)[0]
            sums = _age_sums(sa, (1, base), q)
            sA += sums[0]
            sAI += sums[1]
            # sa[0], the carried actuation, is negative and never counted.
            actuations += len(sa) - int(np.searchsorted(sa, max(warmup - lo, 0)))
            lo += chunk
            del act, st, sd, sa, base  # else alive while `_replay` builds the next: +4 MiB at 0.9

    return _RunAccumulator(edges, sI, sA, sAI, actuations)


def run(p: Params, slots: int, seed: int, warmup: int = 1000) -> RunSummary:
    """Simulate `slots` slots with a seeded generator and average the ages.

    Per slot the generator draws the data event first, then the energy event.
    The first `warmup` slots are excluded from the averages; `seed` must be
    nonnegative.  Identical (p, slots, seed, warmup) always produce a
    bit-identical summary.
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
