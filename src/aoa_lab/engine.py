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
  `_DRAW` slots, thresholded, by one compare a piece, into one reused
  (`_DRAW`, 2) flag buffer, one row a slot, data then energy, and bit-packed,
  by one `np.packbits` a piece, straight into the chunk's packed bytes, four
  slots a byte.  Slot s takes PCG64 output s, the data draw in its low 32
  bits and the energy draw in its high 32 bits, each compared with an
  integer threshold (`_threshold`), so an event of rate lambda is flagged
  with a probability within 2**-32 of lambda.  Chunks are cut at the warmup
  and batch edges too;
* replay, `_replay`: the one loop over chunks and the one counter of slots.
  It alone carries the occupancy across chunk edges.  Its occupancy scan,
  `_scan_events`, reads the packed bytes as 8-slot blocks.  A prefix scan
  over the blocks' maps of the 3 occupancy states, composed from the
  one-slot table of the slot rules (`_step_core`), hands each block its
  start state: an up-sweep composes pairs of maps level by level, and a
  down-sweep carries the states back down, one vectorised gather per level.
  Tests replay it against `step` bit for bit;
* tally, `_tally`, called by `_simulate`, which carries the three ages from
  chunk to chunk: each chunk lies in one batch, or in the warmup, and its
  age sums are renewal-reward sums read off its blocks: one gather gives
  each block its data byte and its actuation byte, and only the nonzero
  bytes are read further, through per-byte tables of their first and last
  event, event count and squared inner gaps, and per-(data byte, act byte)
  tables of the aoai's excess over the aoa.  No per-slot or per-event array
  is built, and every batch sum is an exact integer.

`trace` packs its own pieces of the parsed flags and expands each block to
its slots instead (`_slot_steps`, `_trace_columns`).  Every table is built
once, on first use (`_block_table`).
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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

# Most slots per chunk of the scan and the tally; chunks are also cut at the
# warmup and batch edges.  A chunk's temporaries take a few MiB at most.  In 10
# alternating pairs of the `sim` benchmark each (BENCH_sim_event_blocks.json),
# 2^17 was slower in all 10, by 4.6% in median op_s, at 1.2 MB lower peak RSS,
# and 2^19 faster in all 10, by 1.5%, but at 1.7 MB higher peak RSS.
_CHUNK = 1 << 18
# Slots per draw piece, a multiple of 4, so that each piece packs into whole
# bytes (`_drawn` checks it): a piece's 64-bit outputs, 128 KiB, a uint32
# threshold buffer of as many rows, 128 KiB, and a flag buffer, 32 KiB.  The
# only chunk-long draw buffer is the packed bytes, 64 KiB.  At 2^13 `sim` was
# slower in 4 of 4 alternating benchmark runs, at no lower peak
# (BENCH_sim_one_draw.json).  Results do not depend on the size.
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

    Returns a (slots, 2) bool array, one row a slot, data then energy, which
    `_trace_columns` packs for the scan.  Slots must be numbered
    consecutively from 1; blank lines take no number.  Raises DomainError
    naming the offending line on any malformed content.
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


class _Tables(NamedTuple):
    """The simulator's lookup tables, built once by `_block_table`.

    A block is a 16-bit code with interleaved bits: bit 2i holds the data
    flag of slot i and bit 2i+1 its energy flag, so `np.packbits` of a (k, 2)
    flag array, little bit order, read as little-endian uint16, gives the
    blocks.  A block's key is `3 * block + state`, with its start state
    (0=(0,0), 1=(0,1), 2=(1,0)).  A map of the 3 states to the 3 states is
    coded f(0) + 3 f(1) + 9 f(2), from 0 to 26.
    """

    # uint8 per block: the code of the block's map from its start state to its end state.
    maps: np.ndarray
    # (256, 256) uint8: `compose[b, a]` is the code of map a followed by map
    # b, for a, b < 27.  Read flat, its index is `a | b << 8`, so two adjacent
    # uint8 map codes, viewed as one little-endian uint16, index their composition.
    compose: np.ndarray
    # Little-endian uint16 per key: the block's data byte | its actuation
    # byte << 8, bit i of each for slot i.
    events: np.ndarray
    # uint8 per byte: its first and last set bit (0 for the zero byte), its
    # set bits, and the sum of the squared gaps between adjacent set bits.
    first: np.ndarray
    last: np.ndarray
    count: np.ndarray
    squares: np.ndarray
    # uint8 per pair `data byte | act byte << 8`, for a block that starts at
    # aoi x: sum of n * (beta - 1) over its actuations but the last, each
    # with its end-of-slot aoi beta and the n slots to the next, is
    # `inner0 + inner1 * x`; the last actuation's beta - 1 is `last0 + last1 * x`.
    inner0: np.ndarray
    inner1: np.ndarray
    last0: np.ndarray
    last1: np.ndarray


def _slot_steps(blocks: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Each block replayed slot by slot through `_TRANSITIONS` from its start state.

    Returns a (len(blocks), 8) uint8 array: entry i of a block is the
    `_TRANSITIONS` entry of its slot i, end-of-slot state | actuated << 2.
    """
    step = np.frombuffer(_TRANSITIONS, dtype=np.uint8)
    state = start.astype(np.uint8)
    out = np.empty((len(blocks), _BLOCK), dtype=np.uint8)
    for i in range(_BLOCK):
        # Index state * 4 + code, in uint8: a block-wide temporary costs 8 times as much.
        out[:, i] = step[state << 2 | (blocks >> 2 * i).astype(np.uint8) & 3]
        state = out[:, i] & 3
    return out


def _occupancy_tables() -> tuple[np.ndarray, np.ndarray]:
    """`_Tables.maps` and `_Tables.events`: every block replayed from each start state."""
    blocks = np.arange(1 << 16, dtype=np.uint16)
    data = np.zeros(1 << 16, dtype=np.uint8)
    for i in range(_BLOCK):
        data |= (blocks >> 2 * i & 1).astype(np.uint8) << i
    maps = np.zeros(1 << 16, dtype=np.uint8)
    acts = []
    for state in range(3):  # one start state at a time: each replay takes 512 KiB
        steps = _slot_steps(blocks, np.full(1 << 16, state, dtype=np.uint8))
        acts.append(sum((steps[:, i] >> 2) << i for i in range(_BLOCK)))
        maps += (steps[:, -1] & 3) * 3 ** state
        del steps  # else alive while the next is built
    events = np.empty((1 << 16, 3), dtype="<u2")
    for state, act in enumerate(acts):
        events[:, state] = data | act.astype("<u2") << 8
    return maps, events.ravel()


def _byte_tables() -> tuple[np.ndarray, ...]:
    """`_Tables.first`, `last`, `count` and `squares`, per byte."""
    byte = np.arange(256, dtype=np.uint8)
    first, last, count, squares = (np.zeros(256, dtype=np.uint8) for _ in range(4))
    for i in reversed(range(_BLOCK)):  # high bits first, so the lowest set bit writes last
        first[byte >> i & 1 == 1] = i
    seen = np.zeros(256, dtype=bool)
    for i in range(_BLOCK):
        bit = byte >> i & 1 == 1
        squares += np.where(bit & seen, (i - last) ** 2, 0).astype(np.uint8)
        last[bit] = i
        count += bit
        seen |= bit
    return first, last, count, squares


def _pair_tables() -> tuple[np.ndarray, ...]:
    """`_Tables.inner0`, `inner1`, `last0` and `last1`: `step`'s aoi rule,
    slot by slot, over each pair `data byte | act byte << 8`."""
    pair = np.arange(1 << 16, dtype=np.uint16)
    arrivals, actuations = (pair & 0xFF).astype(np.uint8), (pair >> 8).astype(np.uint8)
    aoi0 = np.zeros(1 << 16, dtype=np.uint8)  # aoi = aoi0 + aoi1 * x
    aoi1 = np.ones(1 << 16, dtype=bool)
    acted = np.full(1 << 16, -1, dtype=np.int8)  # the last actuation's slot, -1 before any
    inner0, inner1, last0, last1 = (np.zeros(1 << 16, dtype=np.uint8) for _ in range(4))
    for i in range(_BLOCK):
        arrived = (arrivals >> i & 1).astype(bool)
        actuated = (actuations >> i & 1).astype(bool)
        aoi0 = np.where(arrived, 1, aoi0 + 1).astype(np.uint8)
        aoi1 &= ~arrived
        n = np.where(actuated & (acted >= 0), i - acted, 0).astype(np.uint8)
        inner0 += n * last0
        inner1 += n * last1
        last0 = np.where(actuated, aoi0 - 1, last0).astype(np.uint8)
        last1 = np.where(actuated, aoi1, last1).astype(np.uint8)
        acted[actuated] = i
    return inner0, inner1, last0, last1


@functools.cache
def _block_table() -> _Tables:
    """Every `_Tables` table, built once, on first use.

    The occupancy tables replay `_TRANSITIONS`, so `_step_core`'s rules,
    over each block (`_slot_steps`); the pair tables follow `step`'s aoi
    rule, with the aoi kept as a function a + b x of the aoi x before the
    block.  Each part is built by its own function, so that its temporaries
    are freed before the next part's.
    """
    maps, events = _occupancy_tables()
    codes = np.arange(27)
    image = codes // np.array([[1], [3], [9]]) % 3  # image[s, f] = f(s)
    compose = np.zeros((256, 256), dtype=np.uint8)
    compose[:27, :27] = sum(image[image[s], codes[:, None]] * 3 ** s for s in range(3))
    tables = _Tables(maps, compose, events, *_byte_tables(), *_pair_tables())
    for array in tables:
        array.flags.writeable = False
    return tables


def _scan_events(packed: np.ndarray, k: int, state: int):
    """Run the occupancy recursion over one chunk of k slots from occupancy
    state `state` (`_Tables`); returns (keys, the state at its end).

    `packed` holds the chunk's ceil(k / 4) bytes of flags, `np.packbits` of
    its (k, 2) bool flags, one row a slot, data then energy, in little bit
    order.  They are read as 16-bit blocks of 8 slots, padded with empty
    blocks to a power of two; padding only follows the chunk's slots, so it
    changes none of their states.  A prefix scan over the blocks' maps then
    gives each block its start state (Blelloch's up-sweep and down-sweep):
    each up-sweep level composes adjacent pairs of maps by one gather in
    `compose`, up to the map of the whole chunk, which gives the end state;
    each down-sweep level hands a left child its parent's start state
    and a right child that state carried through its left sibling's map, one
    gather again.  A state s is carried as the constant map to s, code 13 s,
    so carrying it through a map is a composition too.  `keys` holds each of
    the ceil(k / 8) blocks as `3 * block + start state`, the index of
    `_Tables.events`, built in place as one intp array.
    """
    tables = _block_table()
    n_blocks = -(-k // _BLOCK)
    blocks = np.zeros(1 << (n_blocks - 1).bit_length(), dtype="<u2")
    blocks.view(np.uint8)[:len(packed)] = packed
    pairs = tables.compose.ravel()
    levels = [tables.maps.take(blocks)]
    while len(levels[-1]) > 1:
        levels.append(pairs.take(levels[-1].view("<u2")))
    end = int(levels[-1][0]) // 3 ** state % 3
    start = np.array([13 * state], dtype=np.uint8)
    for level in reversed(levels[:-1]):
        below = np.empty(len(level), dtype=np.uint8)
        below[0::2] = start
        below[1::2] = level[0::2]
        below[1::2] = pairs.take(below.view("<u2"))
        start = below
    keys = np.multiply(blocks[:n_blocks], 3, dtype=np.intp)
    keys += start[:n_blocks] // 13
    return keys, end


def _replay(chunks):
    """Scan consecutive chunks, each its packed flags and its slot count k,
    from the canonical start.

    Yields per chunk its first slot `lo`, its k and its blocks' `keys`
    (`_scan_events`); it alone carries the occupancy across chunk edges.  A
    chunk's packed flags are not read once the next chunk is asked for.
    `chunks` is a generator, closed when the replay ends or fails.
    """
    state = lo = 0
    try:
        for packed, k in chunks:
            keys, state = _scan_events(packed, k, state)
            yield lo, k, keys
            lo += k
    finally:  # on an error too, so that the draws' buffers are freed at once
        chunks.close()


TRACE_FIELDS = ("t", "data", "energy", "cache", "battery", "actuated", "aoi", "aoa", "aoai")


def _trace_columns(flags: np.ndarray):
    """`run_trace` of a whole (slots, 2) flag array, on `_replay`: yields int64
    rows of the `TRACE_FIELDS`, t counted from 1, one array per piece of
    `_TRACE_PIECE` slots, which it packs for `_replay` as `_drawn` packs a
    chunk.  Each slot's occupancy and actuation come from `_slot_steps`; the
    aoi and aoa grow from 1 after each arrival and actuation, and the aoai
    from the aoi at the last actuation.
    """
    pieces = ((np.packbits(flags[lo:lo + _TRACE_PIECE].ravel(), bitorder="little"),
               min(_TRACE_PIECE, len(flags) - lo)) for lo in range(0, len(flags), _TRACE_PIECE))
    aoi = aoa = aoai = 1  # at the end of the slot before the piece
    for lo, k, keys in _replay(pieces):
        piece = flags[lo:lo + k]
        steps = _slot_steps(*divmod(keys, 3)).ravel()[:k]
        t = np.arange(k)
        aoi_t = t - np.maximum.accumulate(np.where(piece[:, 0], t, -aoi)) + 1
        acted = np.maximum.accumulate(np.where(steps > 3, t, -aoa))
        aoa_t = t - acted + 1
        aoai_t = aoa_t + np.where(acted < 0, aoai - aoa, aoi_t.take(acted, mode="clip") - 1)
        rows = np.column_stack((lo + t + 1, piece, steps >> 1 & 1, steps & 1, steps >> 2,
                                aoi_t, aoa_t, aoai_t))
        aoi, aoa, aoai = rows[-1, 6:].tolist()
        yield rows


def _renewal_sum(blocks: np.ndarray, byte: np.ndarray, k: int, age: int, tables: _Tables):
    """Sum over k slots of an age that is `age` before slot 0 and restarts at 1
    at each event; returns (sum, age at slot k - 1, firsts, lasts).

    The events are the set bits of the nonzero bytes `byte` of the blocks
    `blocks`, bit i of block j for slot 8 j + i; `firsts` and `lasts` are
    each block's first and last event slot.  An age adds n (n + 1) / 2 over
    the n slots from an event to the next or to the end, and those gaps are
    the ones inside each byte (`squares`) and the ones from a byte's last
    event to the next byte's first.
    """
    firsts = (blocks << 3) + tables.first.take(byte)
    lasts = (blocks << 3) + tables.last.take(byte)
    if not len(blocks):
        return k * age + k * (k + 1) // 2, age + k, firsts, lasts
    between = firsts[1:] - lasts[:-1]
    f, z = int(firsts[0]), int(lasts[-1])
    squared = int(tables.squares.take(byte).sum()) + int(between @ between) + (k - z) ** 2
    total = f * age + f * (f + 1) // 2 + (squared + k - f) // 2
    return total, k - z, firsts, lasts


def _tally(keys: np.ndarray, k: int, ages: tuple[int, int, int]):
    """Age sums of one piece of k slots; returns (sums, actuations, ages').

    `keys` are the piece's blocks (`_scan_events`), and `ages` the aoi, aoa
    and aoai at the end of the slot before the piece; `sums` are the sums of
    the three ages over the piece, `ages'` the ages at its last slot.  Each
    block gives its data and actuation bytes (`_Tables.events`), and only the
    nonzero bytes are read (`_renewal_sum`).  After an actuation whose
    end-of-slot aoi is beta the aoai exceeds the aoa by beta - 1, which the
    pair tables give as a linear function of the aoi before its block; that
    aoi comes from the last arrival in an earlier block.  Every sum is exact.
    """
    tables = _block_table()
    pairs = tables.events.take(keys)
    aoi, aoa, aoai = ages
    # Nonzero bytes found on bools: `flatnonzero` of uint8 is 5 times as slow.
    arrived = pairs & 0xFF != 0
    arrivals = np.flatnonzero(arrived)
    aoi_sum, aoi_end, _, arrival_lasts = _renewal_sum(arrivals, pairs.take(arrivals) & 0xFF,
                                                      k, aoi, tables)
    acts = np.flatnonzero(pairs > 0xFF)
    pair = pairs.take(acts).astype(np.intp)
    byte = pair >> 8
    aoa_sum, aoa_end, firsts, lasts = _renewal_sum(acts, byte, k, aoa, tables)
    if not len(acts):
        return [aoi_sum, aoa_sum, aoa_sum + k * (aoai - aoa)], 0, (aoi_end, aoa_end, aoai + k)
    # The aoi x before each actuation's block, from the last arrival in an
    # earlier block, or from `aoi` before any.
    earlier = np.cumsum(arrived, dtype=np.int32).take(acts) - arrived.take(acts)
    x = (acts << 3) - np.concatenate(([-aoi], arrival_lasts)).take(earlier)
    to_next = np.append(firsts[1:], k) - lasts  # from each block's last actuation
    lead = (int(tables.inner0.take(pair).sum()) + int(to_next @ tables.last0.take(pair))
            + int((tables.inner1.take(pair) + to_next * tables.last1.take(pair)) @ x))
    aoai_sum = aoa_sum + int(firsts[0]) * (aoai - aoa) + lead
    aoai_end = aoa_end + int(tables.last0[pair[-1]]) + int(tables.last1[pair[-1]]) * int(x[-1])
    return ([aoi_sum, aoa_sum, aoai_sum], int(tables.count.take(byte).sum()),
            (aoi_end, aoa_end, aoai_end))


def _threshold(rate: float) -> int:
    """The largest 32-bit draw that flags an event of rate `rate`, 0 < rate <= 1.

    A uniform 32-bit draw is at most it with probability ceil(rate * 2**32)
    / 2**32: within 2**-32 of `rate`, exactly `rate` where rate * 2**32 is
    an integer, and 1 at rate 1.
    """
    return math.ceil(rate * 2**32) - 1


def _drawn(p: Params, seed: int, cuts: Sequence[int]):
    """Yield the packed event flags and the slot count k of each chunk of
    slots cuts[0] = 0 to cuts[-1], in order.

    Chunks hold at most `_CHUNK` slots and never span a cut; a chunk's
    ceil(k / 4) bytes are `np.packbits` of its (k, 2) bool flags, one row a
    slot, data then energy, in little bit order, as `_scan_events` reads
    them.  Slot s takes output s of the PCG64 stream of `seed`, as
    `run_batched` states.  Each piece of `_DRAW` slots is compared in one
    pass with a threshold buffer whose every row is the pair of
    `_threshold`s (against a broadcast (2,) row, numpy loops over rows of
    two, 12 times as slow) into one flag buffer, and packed into the chunk's
    bytes: `_DRAW` is a multiple of 4, so every piece but a chunk's last
    fills whole bytes.  One byte buffer serves every chunk: a fresh one would
    fault in its pages each time.
    """
    assert _DRAW % 4 == 0, f"a draw piece must fill whole bytes, got {_DRAW} slots"
    bits = np.random.PCG64(seed)
    chunk = min(_CHUNK, cuts[-1])
    thr = np.empty((min(_DRAW, chunk), 2), dtype=np.uint32)
    thr[:] = _threshold(p.lambda1), _threshold(p.lambda2)
    flags = np.empty_like(thr, dtype=bool)
    packed = np.empty(-(-chunk // 4), dtype=np.uint8)
    for a, z in zip(cuts, cuts[1:]):
        for lo in range(a, z, chunk):
            k = min(chunk, z - lo)
            for b in range(0, k, _DRAW):
                n = min(_DRAW, k - b)
                piece = flags[:n]
                # A uint64's low half comes first on a little-endian host.
                np.less_equal(bits.random_raw(n).view(np.uint32).reshape(n, 2), thr[:n],
                              out=piece)
                packed[b // 4:(b + n + 3) // 4] = np.packbits(piece.ravel(), bitorder="little")
            yield packed[:-(-k // 4)], k


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
    ages = (1, 1, 1)  # the virtual slot before slot 0
    # Chunks are cut at the warmup and batch edges, so each is tallied whole
    # into one batch, or into none in the warmup.
    for lo, k, keys in _replay(_drawn(p, seed, [0] + cuts)):
        tally, count, ages = _tally(keys, k, ages)
        b = bisect.bisect_right(cuts, lo) - 1
        if b >= 0:
            sums[:, b] += tally
            actuations += count
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
