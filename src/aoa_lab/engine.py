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

* the events are drawn in pieces of `_DRAW` slots into a small buffer and
  thresholded, by one compare a piece, into the chunk's (k, 2) flags, one
  row a slot, data then energy.  A piece's draws are addressed by its
  position in the seeded stream: slot s takes PCG64 outputs 2s and 2s+1, so
  any thread with its own copy of the generator, moved on to slot s, draws
  that piece.  Where a second CPU may run it, a helper thread draws pieces
  of chunk i+1 into a second flag array while the calling thread scans chunk
  i and takes its age sums; then the calling thread draws the pieces still
  undrawn.  Which thread draws which piece depends on timing, and no seeded
  result depends on it;
* the occupancy scan bit-packs the flags, by one `np.packbits`, into 8-slot
  blocks and looks them up in a table that composes the one-slot table of
  the same slot rules (`_step_core`).  A prefix scan over the blocks' maps
  of the 3 occupancy states hands each block its start state: an up-sweep
  composes pairs of maps level by level, and a down-sweep carries the
  states back down, one vectorised gather per level.  Tests replay it
  against `step` bit for bit;
* the age sums are renewal-reward sums over the arrival and actuation slots:
  an age that restarts at a and runs n slots adds n*a + n*(n-1)/2, so no
  per-slot age is stored.  Each batch's share of a chunk is summed in closed
  form from the starts inside it, and every batch sum is an exact integer.

`_replay` is the one loop over chunks: it alone carries the state across
chunk edges and works out each actuation's packet: the one that arrived in
the same slot, else the last arrival before it.  `run_batched` sums the ages
over its events; `trace` expands them to one row per slot (`_trace_columns`).
"""

from __future__ import annotations

import csv
import functools
import itertools
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
# Slots per draw piece.  Each drawing thread draws a chunk's pieces into a
# 128 KiB buffer of its own, two float64 draws per slot, and thresholds them
# against one shared threshold buffer of the same size into the chunk's flags,
# so no chunk-long float buffer is ever held: 384 KiB with two threads.  At
# 2^14, 768 KiB, the `sim` benchmark's peak resident memory rose by 0.3-0.4 MB
# and its time fell in one of two rounds of runs (BENCH_sim_split_draw.json).
# Results do not depend on the size.
_DRAW = 1 << 13
# Slots per piece of `trace`'s replay, each printed whole: a 600 000-row
# `--json` trace peaked at 44.4 MiB resident at 2^12, 52.5 at 2^14, 60.5 at 2^15.
_TRACE_PIECE = 1 << 12
# Batches of `run_batched`'s batch-means standard error, unless a run has
# fewer measured slots.
N_BATCHES = 20


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

    Returns the (slots, 2) bool array that the scan reads, one row a slot,
    data then energy.  Slots must be numbered consecutively from 1; blank
    lines take no number.  Raises DomainError naming the offending line on
    any malformed content.
    """
    codes = bytearray()  # data | energy << 1, one byte a slot
    # A leading byte-order mark, as spreadsheet CSV exports write, is dropped;
    # undecodable bytes become U+FFFD, which the line checks below reject.
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
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
    return flags.view(bool)


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


def _age_sums(starts: np.ndarray, bases, a: int, z: int) -> list[int]:
    """Sums of ages over the slot range [a, z), a < z: one per entry of `bases`.

    Each age restarts at `base[j]` (a scalar `base` is used at every start)
    at slot `starts[j]`, sorted with starts[0] <= a, and grows by one each
    slot until the next start.  A segment that starts at age b and lasts n
    slots adds n*b + n*(n-1)/2, so only the start slots are needed.  The range
    spans segment i, the last to start at or before a, to segment j-1, the
    last to start before z: the segments between whole, less the h slots of
    segment i before a, and segment j-1 cut to its m slots before z.  Their
    n*(n-1)/2 terms come to (n.n + m*m - h*h - (z - a)) / 2.  Every sum is
    exact.
    """
    i = int(starts.searchsorted(a, "right")) - 1
    j = int(starts.searchsorted(z))
    n = np.diff(starts[i:j])
    h, m = a - int(starts[i]), z - int(starts[j - 1])
    ramp = (int(n @ n) + m * m - h * h - (z - a)) // 2
    return [ramp + base * (z - a) if np.ndim(base) == 0
            else ramp + int(n @ base[i:j - 1]) + m * int(base[j - 1]) - h * int(base[i])
            for base in bases]


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


def _drawer(seed: int, thr: np.ndarray):
    """A draw function with a generator and a draw buffer of its own.

    `draw(flags, slot)` fills `flags`, an (n, 2) bool array with n <=
    len(thr), with the events of slots slot to slot + n - 1, whatever it drew
    before: the rows of `default_rng(seed).random((slots, 2)) < thr[0]`.
    Slot s takes outputs 2s and 2s+1 of the PCG64 stream, the data draw then
    the energy draw, and `Generator.random` makes one double of each, so
    `advance` moves the generator to any slot.  Each drawing thread needs its
    own: a shared generator's lock would run their draws one after the other.
    The draws are compared in one pass with `thr`, whose every row is
    (lambda1, lambda2): against a broadcast (2,) row, numpy loops over rows
    of two, and the compare took 12 times as long.
    """
    bits = np.random.PCG64(seed)
    rng = np.random.Generator(bits)
    u = np.empty_like(thr)
    at = 0  # the slot whose draws the generator gives next

    def draw(flags: np.ndarray, slot: int) -> None:
        nonlocal at
        bits.advance(2 * (slot - at))
        piece = u[:len(flags)]
        rng.random(out=piece)
        np.less(piece, thr[:len(piece)], out=flags)
        at = slot + len(flags)

    return draw


def _draw_claimed(draw, flags: np.ndarray, lo: int, pieces) -> np.ndarray:
    """Draw the pieces of one chunk that `pieces` hands out, until none is left.

    `flags` holds the chunk's slots lo to lo + k - 1 and `pieces` counts its
    pieces of `_DRAW` slots, from 0.  Two threads may claim pieces from the
    same counter, each with its own `draw`; each piece is drawn once, by
    whichever thread took its number.  Returns `flags`.
    """
    for i in pieces:
        a = i * _DRAW
        if a >= len(flags):
            break
        draw(flags[a:a + _DRAW], lo + a)
    return flags


def _simulate(p: Params, slots: int, seed: int, warmup: int, n_batches: int):
    """Simulate and tally exactly; returns (edges, sums, actuations).

    `edges` are the int64 batch edges, `n_batches + 1` of them from `warmup`
    to `slots`; `sums` is the (3, n_batches) int64 array of the aoi, aoa and
    aoai sums over each batch; `actuations` counts the measured ones.
    Unchecked: `run_batched` passes 0 <= warmup < slots, 1 <= n_batches <=
    slots - warmup and a nonnegative seed.
    """
    measured = slots - warmup
    edges = warmup + (np.arange(n_batches + 1, dtype=np.int64) * measured) // n_batches

    sums = np.zeros((3, n_batches), dtype=np.int64)
    actuations = 0

    # One or two flag buffers for every chunk, one threshold buffer and a
    # draw buffer per drawing thread: fresh ones would fault in their pages
    # each time.  Drawing ahead, the helper thread claims pieces of chunk i+1,
    # in the other flag buffer, while the calling thread scans chunk i; then
    # the calling thread claims the pieces still undrawn and waits for the
    # helper's last one.  Both claim chunk 0 at once.  Drawing in place, the
    # calling thread claims every piece of chunk i+1 once the scan of chunk i
    # is done.  Each piece's draws come from its own place in the stream, so
    # the flags are the same whichever thread draws it.
    ahead = _draws_ahead()
    chunk = min(_CHUNK, slots)
    thr = np.empty((min(_DRAW, chunk), 2))
    thr[:] = p.lambda1, p.lambda2
    calling_draw, helper_draw = _drawer(seed, thr), ahead and _drawer(seed, thr)
    flags = np.empty((2 if ahead else 1, chunk, 2), dtype=bool)

    def drawn(helper):
        def share(lo: int):  # chunk lo's claims, handed first to the helper if there is one
            job = flags[lo // chunk % len(flags), :min(chunk, slots - lo)], lo, itertools.count()
            return job, helper and helper.submit(_draw_claimed, helper_draw, *job)

        job, helped = share(0)
        for lo in range(0, slots, chunk):
            events = _draw_claimed(calling_draw, *job)
            if helped:
                helped.result()
            if lo + chunk < slots:
                job, helped = share(lo + chunk)
            yield events

    with ThreadPoolExecutor(1) if ahead else nullcontext() as helper:
        lo = 0
        cuts = edges.tolist()  # Python ints: no range end can overflow
        for act, st, sd, sa, base in _replay(drawn(helper)):
            # Renewal-reward age sums from the event slots alone, over each
            # batch's share of the chunk.
            for b in range(n_batches):
                a, z = max(cuts[b] - lo, 0), min(cuts[b + 1] - lo, len(act))
                if a < z:
                    sums[0, b] += _age_sums(sd, (1,), a, z)[0]
                    sums[1:, b] += _age_sums(sa, (1, base), a, z)
            # sa[0], the carried actuation, is negative and never counted.
            actuations += len(sa) - int(np.searchsorted(sa, max(warmup - lo, 0)))
            lo += chunk
            del act, st, sd, sa, base  # else alive while `_replay` builds the next: +4 MiB at 0.9

    return edges, sums, actuations


def _check_run(slots: int, seed: int) -> None:
    """Raise `run_batched`'s argument errors, one slot first: two batch means or more."""
    if slots == 1:
        raise DomainError("the sim route needs 2 slots or more, for two batch means, got 1")
    if slots <= 0:
        raise DomainError(f"slots must be positive, got {slots}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def run(p: Params, slots: int, seed: int) -> RunSummary:
    """The summary of `run_batched(p, slots, seed)`."""
    return run_batched(p, slots, seed)[0]


def run_batched(p: Params, slots: int, seed: int):
    """Simulate `slots` slots with a seeded generator and average the ages.

    Per slot the generator draws the data event first, then the energy event.
    The one run rule: the first warmup = min(1000, slots // 10) slots are left
    out of the averages, and the rest is split into min(`N_BATCHES`, slots -
    warmup) batches, two or more, since `slots` must be 2 or more; `seed`
    must be nonnegative.  Returns (RunSummary, means, stderrs): means and
    stderrs are length-3 arrays ordered (aoi, aoa, aoai), and each standard
    error comes from the sample standard deviation of the batch means.
    Identical (p, slots, seed) always give bit-identical results.
    """
    _check_run(slots, seed)
    warmup = min(1000, slots // 10)
    n_batches = min(N_BATCHES, slots - warmup)
    edges, sums, actuations = _simulate(p, slots, seed, warmup, n_batches)
    measured = slots - warmup
    # Python ints, so each mean is the correctly rounded quotient of exact sums.
    means = np.array([total / measured for total in sums.sum(axis=1).tolist()])
    summary = RunSummary(slots, *means.tolist(), actuations, seed, warmup)
    batch_means = sums / np.diff(edges)
    return summary, means, batch_means.std(axis=1, ddof=1) / np.sqrt(n_batches)
