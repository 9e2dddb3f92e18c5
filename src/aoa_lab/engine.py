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
  and thresholded, by one compare a piece, into the chunk's (k, 2) flags,
  one row a slot, data then energy.  Where a second CPU may run it, one
  helper thread draws chunk i+1 into a second flag array while the calling
  thread scans chunk i and takes its age sums; the helper alone touches the
  generator and draws the chunks in order, so every seeded result is the
  same either way;
* the occupancy scan bit-packs the flags, by one `np.packbits`, into 8-slot
  blocks and looks them up in a table that composes the one-slot table of
  the same slot rules (`_step_core`).  A prefix scan over the blocks' maps
  of the 3 occupancy states hands each block its start state: an up-sweep
  composes pairs of maps level by level, and a down-sweep carries the
  states back down, one vectorised gather per level.  Tests replay it
  against `step` bit for bit;
* the age sums are renewal-reward sums over the arrival and actuation slots:
  an age that restarts at a and runs n slots adds n*a + n*(n-1)/2, so no
  per-slot age is stored, and every batch sum is an exact integer.

`_replay` is the one loop over chunks: it alone carries the state across
chunk edges and works out each actuation's packet: the one that arrived in
the same slot, else the last arrival before it.  `run_batched` sums the ages
over its events; `trace` expands them to one row per slot (`_trace_columns`).
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
# into one 256 KiB buffer, two float64 draws per slot, and thresholded against
# a threshold buffer of the same size into the chunk's flags, so no chunk-long
# float buffer is ever held.  2^15 timed the same.  Results do not depend on
# either size.
_DRAW = 1 << 14
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


def read_events_csv(path) -> np.ndarray:
    """Parse an event-trace file: header `t,data,energy`, one {0,1} row per slot.

    Returns the (2, slots) bool array of the data and energy flags, the
    transpose of the (slots, 2) array that the scan reads.  Slots must be
    numbered consecutively from 1; blank lines take no number.  Raises
    DomainError naming the offending line on any malformed content.
    """
    codes = bytearray()  # data | energy << 1, one byte a slot
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
                t, d, e = map(int, row)  # int strips surrounding whitespace
            except ValueError:
                raise DomainError(f"line {lineno}: non-integer value in {row!r}") from None
            if t != len(codes) + 1:
                raise DomainError(f"line {lineno}: slot index must be {len(codes) + 1}, got {t}")
            if d not in (0, 1) or e not in (0, 1):
                raise DomainError(f"line {lineno}: data and energy must be 0 or 1, got {d},{e}")
            codes.append(d | e << 1)
    if not codes:
        raise DomainError("line 2: no event rows after header")
    flags = np.unpackbits(np.frombuffer(codes, dtype=np.uint8)[:, None], axis=1, count=2,
                          bitorder="little")  # (slots, 2): bit 0, data, then bit 1, energy
    return flags.view(bool).T


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

_BLOCK = 8  # slots per block: 16 bits, a data bit and an energy bit per slot


@functools.cache
def _block_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_TRANSITIONS` composed over 8-slot blocks; built on first use.

    A block is a 16-bit code with interleaved bits: bit 2i holds the data
    flag of slot i and bit 2i+1 its energy flag, so `np.packbits` of a (k, 2)
    flag array, little bit order, read as little-endian uint16, gives the
    blocks.  A map of the 3 states to the 3 states is coded
    f(0) + 3 f(1) + 9 f(2), from 0 to 26.  Returns:

    * `table`, little-endian uint64, indexed by `block << 2 | state` (index 3
      of each block repeats state 0 and is never read): byte i is the
      `_TRANSITIONS` entry of slot i, end-of-slot state | actuated << 2;
    * `maps`, uint8 per block: the code of the block's map from its start
      state to its end state;
    * `compose`, a (256, 256) uint8 array: `compose[b, a]` is the code of map
      a followed by map b, for a, b < 27.  Read flat, its index is
      `a | b << 8`, so two adjacent uint8 map codes, viewed as one
      little-endian uint16, index their composition.
    """
    step = np.frombuffer(_TRANSITIONS, dtype=np.uint8)
    block = np.arange(1 << 16)[:, None]
    state = np.array([0, 1, 2, 0], dtype=np.uint8)[None, :]
    table = np.zeros((1 << 16, 4, _BLOCK), dtype=np.uint8)
    for i in range(_BLOCK):
        table[:, :, i] = step[state * 4 + (block >> 2 * i & 3)]
        state = table[:, :, i] & 3
    table = table.view("<u8").ravel()
    maps = state[:, 0] + 3 * state[:, 1] + 9 * state[:, 2]
    codes = np.arange(27)
    image = codes // np.array([[1], [3], [9]]) % 3  # image[s, f] = f(s)
    compose = np.zeros((256, 256), dtype=np.uint8)
    compose[:27, :27] = sum(image[image[s], codes[:, None]] * 3 ** s for s in range(3))
    for array in (table, maps, compose):
        array.flags.writeable = False
    return table, maps, compose


def _scan_events(flags: np.ndarray, cache: int, battery: int):
    """Run the occupancy recursion over one chunk; returns (act, state, C, B).

    `flags` is the chunk's (k, 2) bool array, one row a slot, data then
    energy.  One `np.packbits` turns it into 16-bit blocks of 8 slots, padded
    with empty blocks to a power of two; padding only follows the chunk's
    slots, so it changes none of their states.  A prefix scan over the
    blocks' maps then gives each block its start state (Blelloch's up-sweep
    and down-sweep): each up-sweep level composes adjacent pairs of maps by
    one gather in `compose`, up to the map of the whole chunk; each
    down-sweep level hands a left child its parent's start state and a right
    child that state carried through its left sibling's map, one gather
    again.  A state s is carried as the constant map to s, code 13 s, so
    carrying it through a map is a composition too.  One last gather of the
    blocks' table entries gives each slot's end-of-slot state and actuation
    bit.
    """
    k = len(flags)
    table, maps, compose = _block_table()
    n_blocks = -(-k // _BLOCK)
    blocks = np.zeros(1 << (n_blocks - 1).bit_length(), dtype="<u2")
    blocks.view(np.uint8)[:-(-k // 4)] = np.packbits(flags.ravel(), bitorder="little")
    pairs = compose.ravel()
    levels = [maps.take(blocks)]
    while len(levels[-1]) > 1:
        levels.append(pairs.take(levels[-1].view("<u2")))
    start = np.array([13 * (cache * 2 + battery)], dtype=np.uint8)
    for level in reversed(levels[:-1]):
        below = np.empty(len(level), dtype=np.uint8)
        below[0::2] = start
        below[1::2] = level[0::2]
        below[1::2] = pairs.take(below.view("<u2"))
        start = below
    index = blocks[:n_blocks].astype(np.intp) << 2
    index |= start[:n_blocks] // 13
    packed = table.take(index).view(np.uint8)[:k]
    state = packed & 3
    end = int(state[-1])
    return packed > 3, state, end >> 1, end & 1


def _replay(chunks):
    """Scan consecutive (k, 2) flag chunks from the canonical start.

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
    for flags in chunks:
        k = len(flags)
        act, st, cache, battery = _scan_events(flags, cache, battery)
        data = flags[:, 0]
        pd = np.flatnonzero(data)
        pa = np.flatnonzero(act)
        sd = np.concatenate(([last_d - done], pd))
        sa = np.concatenate(([last_a - done], pa))
        # The aoi at an actuation.  The cache holds only the last arrival, so
        # the actuated packet is the one that arrived in the same slot, of aoi
        # 1, or else the last arrival before it.
        base = np.ones(len(sa), dtype=np.int64)
        base[0] = aoi_at_last_act
        stale = np.flatnonzero(~data[pa])
        t = pa[stale]
        base[stale + 1] = t + 1 - sd[np.searchsorted(sd, t) - 1]
        yield act, st, sd, sa, base
        last_d = done + int(sd[-1])
        last_a = done + int(sa[-1])
        aoi_at_last_act = int(base[-1])
        done += k


def _trace_columns(flags: np.ndarray):
    """`run_trace` of a whole (slots, 2) flag array, on `_replay`: yields int64
    rows of (slot, data, energy, cache, battery, actuated, aoi, aoa, aoai), one
    array per piece of `_TRACE_PIECE` slots.  From each event of `_replay` to
    the next, the aoi and aoa grow from 1 and the aoai from `base`.
    """
    starts = range(0, len(flags), _TRACE_PIECE)
    pieces = [flags[lo:lo + _TRACE_PIECE] for lo in starts]
    for lo, piece, (act, st, sd, sa, base) in zip(starts, pieces, _replay(pieces)):
        k = len(piece)
        t = np.arange(k)
        arrived = np.repeat(sd, np.diff(sd.clip(0), append=k))
        spans = np.diff(sa.clip(0), append=k)
        acted, aoi_at_act = np.repeat(sa, spans), np.repeat(base, spans)
        yield np.column_stack((lo + t + 1, piece, st >> 1, st & 1, act,
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


def _draw_chunk(rng, u: np.ndarray, thr: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Draw one chunk's events into `flags`, a (k, 2) bool array; returns it.

    The chunk is drawn in pieces of `len(u)` slots into the (len(u), 2) float
    buffer `u`, which consumes the generator exactly as `rng.random((k, 2))`
    does: per slot the data draw first, then the energy draw.  Each piece is
    compared in one pass with `thr`, of the same shape, whose every row is
    (lambda1, lambda2): against a broadcast (2,) row, numpy loops over rows
    of two, and the compare took 12 times as long.
    """
    k = len(flags)
    for lo in range(0, k, len(u)):
        piece = u[:k - lo]
        rng.random(out=piece)
        np.less(piece, thr[:len(piece)], out=flags[lo:lo + len(piece)])
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
    sI = np.zeros(n_batches, dtype=np.int64)
    sA = np.zeros(n_batches, dtype=np.int64)
    sAI = np.zeros(n_batches, dtype=np.int64)
    actuations = 0

    # One draw buffer, its threshold rows and one or two flag buffers for
    # every chunk: fresh ones would fault in their pages each time.  Drawing
    # ahead, the helper thread draws chunk i+1 into the second flag buffer
    # while the calling thread scans chunk i.  Drawing in place, the calling
    # thread draws chunk i+1 into the one flag buffer once the scan of chunk
    # i is done.  Either way, one thread draws every chunk, in order.
    ahead = _draws_ahead()
    chunk = min(_CHUNK, slots)
    u = np.empty((min(_DRAW, chunk), 2))
    thr = np.empty_like(u)
    thr[:] = p.lambda1, p.lambda2
    flags = np.empty((2 if ahead else 1, chunk, 2), dtype=bool)

    def draw(lo: int) -> np.ndarray:
        buffer = flags[lo // chunk % len(flags), :min(chunk, slots - lo)]
        return _draw_chunk(rng, u, thr, buffer)

    def drawn(helper):
        if ahead:
            pending = helper.submit(draw, 0)
        for lo in range(0, slots, chunk):
            events = pending.result() if ahead else draw(lo)
            if ahead and lo + chunk < slots:
                pending = helper.submit(draw, lo + chunk)
            yield events

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
