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
reference semantics.  `run_batched` simulates long horizons in chunks of
slots, in three stages, each owned by one function:

* draws, `_drawn`: the events are drawn on the calling thread in pieces of
  `_DRAW` slots and thresholded, by one compare a piece, into the chunk's
  (k, 2) flags, one row a slot, data then energy.  Slot s takes PCG64 output
  s, the data draw in its low 32 bits and the energy draw in its high 32
  bits, each compared with an integer threshold (`_threshold`), so an event
  of rate lambda is flagged with a probability within 2**-32 of lambda;
* replay, `_replay`: the one loop over chunks and the one counter of slots.
  It alone carries the state across chunk edges.  Its occupancy scan,
  `_scan_events`, bit-packs the flags, by one `np.packbits`, into 8-slot
  blocks and looks them up in a table that composes the one-slot table of
  the same slot rules (`_step_core`).  A prefix scan over the blocks' maps
  of the 3 occupancy states hands each block its start state: an up-sweep
  composes pairs of maps level by level, and a down-sweep carries the
  states back down, one vectorised gather per level.  Tests replay it
  against `step` bit for bit.  It then works out each actuation's packet:
  the one that arrived in the same slot, else the last arrival before it;
* tally, `_simulate`: the age sums are renewal-reward sums over the arrival
  and actuation slots that `_replay` yields: an age that restarts at a and
  runs n slots adds n*a + n*(n-1)/2, so no per-slot age is stored.  Each
  batch's share of a chunk is summed in closed form from the starts inside
  it, and every batch sum is an exact integer.

`trace` expands `_replay`'s events to one row per slot instead
(`_trace_columns`).
"""

from __future__ import annotations

import csv
import functools
import math
import os
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
# Slots per draw piece: a piece's 64-bit outputs, 128 KiB, and a uint32
# threshold buffer of as many rows, 128 KiB, so no chunk-long draw buffer is
# held.  At 2^13 `sim` was slower in 4 of 4 alternating benchmark runs, at no
# lower peak (BENCH_sim_one_draw.json).  Results do not depend on the size.
_DRAW = 1 << 14
# Slots per piece of `trace`'s replay, each printed whole: a 600 000-row
# `--json` trace peaked at 44.4 MiB resident at 2^12, 52.5 at 2^14, 60.5 at 2^15.
_TRACE_PIECE = 1 << 12
# Batches of `run_batched`'s batch-means standard error, unless a run has
# fewer measured slots.
N_BATCHES = 20
_MAX_SLOTS = (2**63 - 1) // N_BATCHES  # most slots whose int64 batch edges cannot wrap


@dataclass(frozen=True)
class EngineState:
    """Joint simulator state at a slot boundary: occupancy, ages, slot count."""

    system: SystemState
    ages: AgeVector
    slot: int


@dataclass(frozen=True)
class RunSummary:
    """Time averages of one seeded run and their batch-means standard errors.

    Averages are taken over the `slots - warmup` measured slots, and
    `actuation_count` counts the actuations in them.  Each `stderr_*` is
    the sample standard deviation of the batch means over the square root
    of the batch count.  `mean_aoa <= mean_aoai` holds exactly (the bound
    holds per slot); `mean_aoi <= mean_aoa` is an equilibrium property that
    holds at long horizons for most of the parameter square but is provably
    violated by this model when data is scarce and energy plentiful.
    """

    slots: int
    mean_aoi: float
    mean_aoa: float
    mean_aoai: float
    stderr_aoi: float
    stderr_aoa: float
    stderr_aoai: float
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
        for row in reader:
            lineno = reader.line_num  # a quoted field may span lines
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

    Yields per chunk its first slot `lo`, its `flags`, the scan's `act` and
    `st`, and in chunk-local slots the arrivals `sd`, the actuations `sa` and
    the end-of-slot aoi `base` at each actuation, each led by the last one of
    the earlier chunks (before any: slot -1, the virtual slot of age 1, and
    aoi 1).  A chunk's flags are not read once the next chunk is asked for.
    `chunks` is a generator, closed when the replay ends or fails.
    """
    cache = battery = 0
    last_d = last_a = -1
    aoi_at_last_act = 1
    lo = 0
    try:
        for flags in chunks:
            act, st, cache, battery = _scan_events(flags, cache, battery)
            data = flags[:, 0]
            pd = np.flatnonzero(data)
            pa = np.flatnonzero(act)
            sd = np.concatenate(([last_d - lo], pd))
            sa = np.concatenate(([last_a - lo], pa))
            # The aoi at an actuation.  The cache holds only the last arrival,
            # so the actuated packet is the one that arrived in the same slot,
            # of aoi 1, or else the last arrival before it.
            base = np.ones(len(sa), dtype=np.int64)
            base[0] = aoi_at_last_act
            stale = np.flatnonzero(~data[pa])
            t = pa[stale]
            base[stale + 1] = t + 1 - sd[np.searchsorted(sd, t) - 1]
            yield lo, flags, act, st, sd, sa, base
            last_d = lo + int(sd[-1])
            last_a = lo + int(sa[-1])
            aoi_at_last_act = int(base[-1])
            lo += len(flags)
    finally:  # on an error too, so that the draws' buffers are freed at once
        chunks.close()


TRACE_FIELDS = ("t", "data", "energy", "cache", "battery", "actuated", "aoi", "aoa", "aoai")


def _trace_columns(flags: np.ndarray):
    """`run_trace` of a whole (slots, 2) flag array, on `_replay`: yields int64
    rows of the `TRACE_FIELDS`, t counted from 1, one array per piece of
    `_TRACE_PIECE` slots.  From each event of `_replay` to the next, the aoi
    and aoa grow from 1 and the aoai from `base`.
    """
    pieces = (flags[lo:lo + _TRACE_PIECE] for lo in range(0, len(flags), _TRACE_PIECE))
    for lo, piece, act, st, sd, sa, base in _replay(pieces):
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
    """The number of CPUs this process may run on: its affinity mask (Linux)."""
    return len(os.sched_getaffinity(0))


def _threshold(rate: float) -> int:
    """The largest 32-bit draw that flags an event of rate `rate`, 0 < rate <= 1.

    A uniform 32-bit draw is at most it with probability ceil(rate * 2**32)
    / 2**32: within 2**-32 of `rate`, exactly `rate` where rate * 2**32 is
    an integer, and 1 at rate 1.
    """
    return math.ceil(rate * 2**32) - 1


def _drawn(p: Params, slots: int, seed: int):
    """Yield the (k, 2) event flags of each chunk of `slots` slots, in order.

    Slot s takes output s of the PCG64 stream of `seed`, as `run_batched`
    states.  Each piece of `_DRAW` slots is compared in one pass with a
    threshold buffer whose every row is the pair of `_threshold`s: against a
    broadcast (2,) row, numpy loops over rows of two, 12 times as slow.  One
    flag buffer serves every chunk: a fresh one would fault in its pages
    each time.
    """
    bits = np.random.PCG64(seed)
    chunk = min(_CHUNK, slots)
    thr = np.empty((min(_DRAW, chunk), 2), dtype=np.uint32)
    thr[:] = _threshold(p.lambda1), _threshold(p.lambda2)
    flags = np.empty((chunk, 2), dtype=bool)
    for lo in range(0, slots, chunk):
        events = flags[:min(chunk, slots - lo)]
        for a in range(0, len(events), _DRAW):
            piece = events[a:a + _DRAW]
            n = len(piece)
            # A uint64's low half comes first on a little-endian host.
            np.less_equal(bits.random_raw(n).view(np.uint32).reshape(n, 2), thr[:n], out=piece)
        yield events


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
    cuts = edges.tolist()  # Python ints: no range end can overflow
    sums = np.zeros((3, n_batches), dtype=np.int64)
    actuations = 0
    for lo, flags, act, st, sd, sa, base in _replay(_drawn(p, slots, seed)):
        # Renewal-reward age sums from the event slots alone, over each
        # batch's share of the chunk.
        for b in range(n_batches):
            a, z = max(cuts[b] - lo, 0), min(cuts[b + 1] - lo, len(act))
            if a < z:
                sums[0, b] += _age_sums(sd, (1,), a, z)[0]
                sums[1:, b] += _age_sums(sa, (1, base), a, z)
        # sa[0], the carried actuation, is negative and never counted.
        actuations += len(sa) - int(np.searchsorted(sa, max(warmup - lo, 0)))
        del act, st, sd, sa, base  # else alive while `_replay` builds the next: +4 MiB at 0.9
    return edges, sums, actuations


def _check_run(slots: int, seed: int) -> None:
    """Raise `run_batched`'s argument errors, one slot first: two batch means or more."""
    if slots == 1:
        raise DomainError("the sim route needs 2 slots or more, for two batch means, got 1")
    if slots <= 0:
        raise DomainError(f"slots must be positive, got {slots}")
    if slots > _MAX_SLOTS:
        raise DomainError(f"slots must be at most {_MAX_SLOTS}, got {slots}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")


def run_batched(p: Params, slots: int, seed: int) -> RunSummary:
    """Simulate `slots` slots with a seeded generator and average the ages.

    Slot s takes output s of `np.random.PCG64(seed)`: its low 32 bits are the
    data draw and its high 32 bits the energy draw, and an event of rate
    lambda happens where its draw is at most ceil(lambda * 2**32) - 1, with a
    probability within 2**-32 of lambda (exactly 1 at rate 1).  The one run
    rule: the first warmup = min(1000, slots // 10) slots are left
    out of the averages, and the rest is split into min(`N_BATCHES`, slots -
    warmup) batches, two or more: `slots` runs from 2 to `_MAX_SLOTS`, and
    `seed` is nonnegative.  Identical arguments give a bit-identical summary.
    """
    _check_run(slots, seed)
    warmup = min(1000, slots // 10)
    n_batches = min(N_BATCHES, slots - warmup)
    edges, sums, actuations = _simulate(p, slots, seed, warmup, n_batches)
    # Python ints, so each mean is the correctly rounded quotient of exact sums.
    means = [total / (slots - warmup) for total in sums.sum(axis=1).tolist()]
    stderrs = (sums / np.diff(edges)).std(axis=1, ddof=1) / np.sqrt(n_batches)
    return RunSummary(slots, *means, *stderrs.tolist(), actuations, seed, warmup)
