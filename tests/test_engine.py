import itertools
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoa_lab import analytic, engine
from aoa_lab.core import RATE_FLOOR, AgeVector, Params, SlotEvents, SystemState, make_params
from aoa_lab.engine import (_TRANSITIONS, EngineState, _block_table,
                            _simulate, _slot_steps, _tally, initial_state,
                            read_events_csv, run_batched, run_trace, step)
from aoa_lab.errors import DomainError
from packed_flags import scan_flags

# Most slots a run takes: above it the int64 batch edges would wrap.
MAX_SLOTS = (2**63 - 1) // engine.N_BATCHES


def events_from_arrays(data, energy):
    return [SlotEvents(bool(d), bool(e)) for d, e in zip(data, energy)]


# Hand-checked staircase trace used throughout: seven slots with receptions at
# t=2 and t=6, a single harvest at t=4 that actuates the packet cached at t=2.
REFERENCE_EVENTS = events_from_arrays([0, 1, 0, 0, 0, 1, 0], [0, 0, 0, 1, 0, 0, 0])
REFERENCE_CACHE = [0, 1, 1, 0, 0, 1, 1]
REFERENCE_BATTERY = [0, 0, 0, 0, 0, 0, 0]
REFERENCE_ACTUATED = [False, False, False, True, False, False, False]
REFERENCE_AOI = [2, 1, 2, 3, 4, 1, 2]
REFERENCE_AOA = [2, 3, 4, 1, 2, 3, 4]
REFERENCE_AOAI = [2, 3, 4, 3, 4, 5, 6]


def _state(c, b, i, a, ai, slot=0):
    return EngineState(SystemState(c, b), AgeVector(i, a, ai), slot)


class TestStep:
    def test_cached_packet_actuated_by_harvest(self):
        new, act = step(_state(1, 0, 2, 3, 3), SlotEvents(False, True))
        assert act
        assert (new.system.cache, new.system.battery) == (0, 0)
        assert (new.ages.aoi, new.ages.aoa, new.ages.aoai) == (3, 1, 3)

    def test_fresh_packet_and_fresh_energy_actuate_instantly(self):
        new, act = step(_state(0, 0, 1, 1, 1), SlotEvents(True, True))
        assert act
        assert (new.system.cache, new.system.battery) == (0, 0)
        assert (new.ages.aoi, new.ages.aoa, new.ages.aoai) == (1, 1, 1)

    def test_full_battery_drops_extra_harvest(self):
        new, act = step(_state(0, 1, 5, 5, 5), SlotEvents(False, True))
        assert not act
        assert (new.system.cache, new.system.battery) == (0, 1)
        assert (new.ages.aoi, new.ages.aoa, new.ages.aoai) == (6, 6, 6)

    def test_battery_first_draw_with_same_slot_refill(self):
        new, act = step(_state(0, 1, 3, 3, 3), SlotEvents(True, True))
        assert act
        assert (new.system.cache, new.system.battery) == (0, 1)
        assert (new.ages.aoi, new.ages.aoa, new.ages.aoai) == (1, 1, 1)

    def test_fresh_arrival_replaces_cache_then_actuates(self):
        # The actuated packet is the fresh one, so aoai resets all the way to 1.
        new, act = step(_state(1, 0, 4, 9, 9), SlotEvents(True, True))
        assert act
        assert (new.ages.aoi, new.ages.aoa, new.ages.aoai) == (1, 1, 1)

    def test_slot_counter_increments(self):
        new, _ = step(_state(0, 0, 1, 1, 1, slot=41), SlotEvents(False, False))
        assert new.slot == 42


class TestRunTrace:
    def test_reference_staircase_exact(self):
        traj = run_trace(REFERENCE_EVENTS)
        assert [s.system.cache for s, _ in traj] == REFERENCE_CACHE
        assert [s.system.battery for s, _ in traj] == REFERENCE_BATTERY
        assert [act for _, act in traj] == REFERENCE_ACTUATED
        assert [s.ages.aoi for s, _ in traj] == REFERENCE_AOI
        assert [s.ages.aoa for s, _ in traj] == REFERENCE_AOA
        assert [s.ages.aoai for s, _ in traj] == REFERENCE_AOAI

    def test_single_joint_arrival(self):
        traj = run_trace([SlotEvents(True, True)])
        state, act = traj[0]
        assert act
        assert (state.system.cache, state.system.battery) == (0, 0)
        assert (state.ages.aoi, state.ages.aoa, state.ages.aoai) == (1, 1, 1)

    def test_data_cached_forever_without_energy(self):
        traj = run_trace(events_from_arrays([1, 0], [0, 0]))
        assert [s.system.cache for s, _ in traj] == [1, 1]
        assert [act for _, act in traj] == [False, False]
        assert [s.ages.aoi for s, _ in traj] == [1, 2]
        assert [s.ages.aoa for s, _ in traj] == [2, 3]
        assert [s.ages.aoai for s, _ in traj] == [2, 3]

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError):
            run_trace([])


event_seqs = st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=200)


class TestTrajectoryProperties:
    @given(event_seqs)
    def test_reset_rules(self, seq):
        events = [SlotEvents(d, e) for d, e in seq]
        prev = initial_state()
        for ev, (state, act) in zip(events, run_trace(events)):
            # SystemState construction forbids (1,1); AgeVector enforces the
            # aoai dominance bounds.  Check the reset characterizations.
            assert (state.ages.aoi == 1) == ev.data_arrived
            assert (state.ages.aoa == 1) == act
            if act:
                assert state.ages.aoai == state.ages.aoi
                assert state.system.cache == 0
            else:
                assert state.ages.aoai == prev.ages.aoai + 1
            prev = state

    @given(event_seqs)
    def test_actuation_needs_both_resources(self, seq):
        events = [SlotEvents(d, e) for d, e in seq]
        prev = initial_state()
        for ev, (state, act) in zip(events, run_trace(events)):
            data_avail = prev.system.cache or ev.data_arrived
            energy_avail = prev.system.battery or ev.energy_arrived
            assert act == (data_avail and energy_avail)
            prev = state


class TestKernels:
    def test_scan_matches_step_replay_from_each_start_state(self):
        # The scan pads its blocks to a power of two and sweeps a binary tree
        # over them: 1, 2 and 3 blocks and 2^j - 1, 2^j and 2^j + 1 blocks
        # cross the tree's edges, each with its last block full and short.
        # Each block's key, replayed slot by slot, gives every slot's state
        # and actuation.
        rng = np.random.default_rng(1234)
        counts = [1, 2, 3] + [(1 << j) + d for j in range(2, 10) for d in (-1, 0, 1)]
        for cache, battery in ((0, 0), (0, 1), (1, 0)):
            for n in [8 * b - short for b in counts for short in (0, 5)]:
                flags = rng.random((n, 2)) < 0.5
                keys, end = scan_flags(flags, cache * 2 + battery)
                assert len(keys) == -(-n // 8)
                steps = _slot_steps(*divmod(keys, 3)).ravel()[:n]
                act, stt = steps >> 2, steps & 3
                state = _state(cache, battery, 1, 1, 1)
                for t, (x, y) in enumerate(flags.tolist()):
                    state, actuated = step(state, SlotEvents(x, y))
                    assert act[t] == actuated
                    assert stt[t] == state.system.cache * 2 + state.system.battery
                assert end == state.system.cache * 2 + state.system.battery

    def test_block_table_entries_are_eight_slot_steps(self):
        # A block interleaves its slots' flags, bit 2i data and bit 2i+1
        # energy of slot i; its key is `3 * block + state`.  `_slot_steps`
        # gives each slot's `_TRANSITIONS` entry, `maps` holds each block's
        # map f as f(0) + 3 f(1) + 9 f(2), and `events` the block's data
        # byte and actuation byte, bit i for slot i.
        tables = _block_table()
        rng = np.random.default_rng(77)
        blocks = [0x0000, 0x5555, 0xAAAA, 0xFFFF] + rng.integers(0, 1 << 16, 4096).tolist()
        for start in range(3):
            steps = _slot_steps(np.array(blocks), np.full(len(blocks), start))
            for block, entries in zip(blocks, steps.tolist()):
                state, data, acts = start, 0, 0
                for i in range(8):
                    code = block >> 2 * i & 3
                    expected = _TRANSITIONS[state * 4 + code]
                    assert entries[i] == expected
                    state = expected & 3
                    data |= (code & 1) << i
                    acts |= (expected >> 2) << i
                assert tables.maps[block] // 3 ** start % 3 == state
                assert tables.events[3 * block + start] == data | acts << 8

    def test_compose_table_applies_two_maps_in_turn(self):
        compose = _block_table().compose
        for a, b in itertools.product(range(27), repeat=2):
            after = [b // 3 ** (a // 3 ** s % 3) % 3 for s in range(3)]
            assert compose[b, a] == after[0] + 3 * after[1] + 9 * after[2]
            assert compose.ravel()[a | b << 8] == compose[b, a]

    @pytest.mark.parametrize("piece", [4, 12, 8, 64, engine._DRAW])
    def test_drawn_pieces_are_the_thresholded_draws_at_their_slot(self, piece):
        # Slot s takes output s of the seed's PCG64 stream: its low 32 bits
        # are the data draw and its high 32 bits the energy draw, each an
        # event where it is at most its rate's threshold, and a chunk's bytes
        # are `np.packbits` of its slots' flags.  Chunks of 2 * piece + 5
        # slots end in a short piece that fills no whole byte, and the run in
        # a short chunk; the yielded buffer is reused, so each chunk is
        # copied.  Cuts inside a chunk, at its edge and 1 slot apart end
        # chunks early, and no chunk spans a cut.
        l1, l2 = 0.3, 0.8
        k = 4 * piece + 1000
        raw = np.random.PCG64(8).random_raw(k)
        expected = np.column_stack((raw & 0xFFFFFFFF <= engine._threshold(l1),
                                    raw >> 32 <= engine._threshold(l2)))
        chunk = 2 * piece + 5
        for cuts in ([0, k], [0, 7, chunk + 7, k - 1, k]):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_CHUNK", chunk)
                mp.setattr(engine, "_DRAW", piece)
                chunks = [(packed.copy(), n)
                          for packed, n in engine._drawn(make_params(l1, l2), 8, cuts)]
            ends = np.cumsum([n for _, n in chunks]).tolist()
            assert ends[-1] == k
            assert set(cuts[1:]) <= set(ends)
            assert all(0 < n <= chunk for _, n in chunks)
            # Only a cut ends a chunk early.
            assert all(n == chunk for (_, n), end in zip(chunks, ends) if end not in cuts)
            for (packed, n), end in zip(chunks, ends):
                flags = expected[end - n:end].ravel()
                assert np.array_equal(packed, np.packbits(flags, bitorder="little"))

    def test_drawn_pieces_fill_whole_bytes(self, monkeypatch):
        # A piece of 6 slots would end inside a byte, and the next piece
        # would overwrite it.
        monkeypatch.setattr(engine, "_DRAW", 6)
        with pytest.raises(AssertionError, match="whole bytes"):
            next(engine._drawn(make_params(0.5, 0.5), 1, [0, 100]))

    @pytest.mark.parametrize("rate", [1e-300, 2.0**-40, 2.0**-32, 1e-9, 0.01, 0.05, 0.1,
                                      0.3, 0.5, 0.7, 0.9, 1 - 2.0**-53, 1.0])
    def test_threshold_flags_within_two_to_the_minus_32_of_the_rate(self, rate):
        # A uniform 32-bit draw is at most t with probability (t + 1) / 2^32.
        t = engine._threshold(rate)
        assert 0 <= t <= 2**32 - 1  # fits the uint32 threshold buffer
        flagged = Fraction(t + 1, 2**32)
        assert abs(flagged - Fraction(rate)) <= Fraction(1, 2**32)
        assert flagged >= Fraction(rate)

    def test_threshold_is_exact_at_a_half_and_at_one(self):
        assert engine._threshold(0.5) == 2**31 - 1
        assert engine._threshold(1.0) == 2**32 - 1
        assert engine._threshold(0.25) == 2**30 - 1

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=RATE_FLOOR, max_value=1.0),
           st.floats(min_value=RATE_FLOOR, max_value=1.0),
           st.integers(min_value=1, max_value=2 ** 63 - 1),
           st.integers(min_value=2, max_value=1500),
           st.sampled_from([engine._CHUNK, 7, 8, 9, 511, 512, 513]),
           st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=4),
           st.sampled_from([engine._DRAW, 4, 12, 8, 64]))
    # A 7-slot chunk makes every carry (occupancy, last arrival, last
    # actuation, aoi at the last actuation) cross chunk edges inside the
    # warmup and inside each measured batch; 7, 8 and 9 cut chunks short of,
    # at and past the 8-slot block of the scan, and 511, 512 and 513 at and
    # past the 64 blocks of a power-of-two scan tree.  Draws of 4, 12, 8 and
    # 64 slots put the edges of the draw pieces inside chunks, and those of
    # 4 and 12 inside blocks.
    # Rates down to the floor draw chunks and runs without an arrival or an
    # actuation.
    @example(0.3, 0.6, 5, 1000, 7, 100, 4, 12)
    @example(1.0, 1.0, 3, 300, 9, 20, 3, 8)  # an arrival and an actuation every slot
    # At rate 0.01 the first data arrival of seed 1 is output 542 of its stream.
    @example(0.01, 0.5, 1, 50, 8, 10, 2, 4)  # no arrival, so no actuation
    @example(0.4, 0.7, 9, 1500, 513, 30, 4, 64)
    # The chunk is the warmup and the batch length: every batch edge is a
    # chunk edge, and each batch one chunk's whole range.
    @example(0.3, 0.6, 5, 1500, 300, 300, 4, 64)
    @example(1.0, 1.0, 2, 1200, 300, 300, 3, 8)  # and every slot a restart
    def test_fast_path_matches_reference_step_loop(self, l1, l2, seed, slots, chunk,
                                                   warmup, n_batches, draw):
        warmup = min(warmup, slots - 1)
        n_batches = min(n_batches, slots - warmup)
        p = make_params(l1, l2)
        # Reconstruct the exact event stream the fast path consumes: slot t
        # takes output t, the data draw in its low half, energy in its high.
        raw = np.random.PCG64(seed).random_raw(slots).tolist()
        t1, t2 = engine._threshold(l1), engine._threshold(l2)
        events = [SlotEvents(u & 0xFFFFFFFF <= t1, u >> 32 <= t2) for u in raw]
        traj = run_trace(events)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK", chunk)
            mp.setattr(engine, "_DRAW", draw)
            edges, sums, actuations = _simulate(p, slots, seed, warmup=warmup,
                                                n_batches=n_batches)
        edges = edges.tolist()
        assert edges[0] == warmup and edges[-1] == slots
        assert sums.shape == (3, n_batches) and sums.dtype == np.int64
        for b in range(n_batches):
            batch = traj[edges[b]:edges[b + 1]]
            assert sums[0, b] == sum(s.ages.aoi for s, _ in batch)
            assert sums[1, b] == sum(s.ages.aoa for s, _ in batch)
            assert sums[2, b] == sum(s.ages.aoai for s, _ in batch)
        assert actuations == sum(act for _, act in traj[warmup:])

    def test_piece_tally_matches_step_replay(self):
        # Every piece length from 1 to 40 slots, so full and partial last
        # blocks, from each start state, with ages carried from 1 and from
        # events 10^9 slots back, at event densities from none to every slot.
        rng = np.random.default_rng(23)
        carried = [(1, 1, 1), (10 ** 9, 3, 10 ** 9 + 7), (5, 10 ** 9, 2 * 10 ** 9)]
        for k, density, (cache, battery), ages in itertools.product(
                range(1, 41), (0.0, 0.1, 0.5, 1.0), ((0, 0), (0, 1), (1, 0)), carried):
            flags = rng.random((k, 2)) < density
            keys, _ = scan_flags(flags, cache * 2 + battery)
            state = _state(cache, battery, *ages)
            sums, actuations = [0, 0, 0], 0
            for x, y in flags.tolist():
                state, actuated = step(state, SlotEvents(x, y))
                sums = [total + age for total, age in zip(sums, (
                    state.ages.aoi, state.ages.aoa, state.ages.aoai))]
                actuations += actuated
            end = (state.ages.aoi, state.ages.aoa, state.ages.aoai)
            assert _tally(keys, k, ages) == (sums, actuations, end), (k, density, ages)

    def test_byte_and_pair_tables_match_step_replay(self):
        # Per byte: its first and last set bit, its set bits and its squared
        # gaps between adjacent set bits.  Per (data byte, act byte) pair of
        # a block replayed by `step` from aoi x: the sum of n * (beta - 1)
        # over its actuations but the last, with beta the end-of-slot aoi at
        # one and n the slots to the next, is inner0 + inner1 x, and the last
        # one's beta - 1 is last0 + last1 x, at x = 1 and at x = 10^6.
        tables = _block_table()
        for byte in range(256):
            bits = [i for i in range(8) if byte >> i & 1]
            gaps = np.diff(bits)
            assert tables.count[byte] == len(bits)
            assert tables.squares[byte] == int(gaps @ gaps)
            if bits:
                assert (tables.first[byte], tables.last[byte]) == (bits[0], bits[-1])
        rng = np.random.default_rng(78)
        blocks = [0x0000, 0x5555, 0xAAAA, 0xFFFF] + rng.integers(0, 1 << 16, 4096).tolist()
        for block, (cache, battery), x in itertools.product(
                blocks, ((0, 0), (0, 1), (1, 0)), (1, 10 ** 6)):
            state = _state(cache, battery, x, 1, x)
            data = acts = inner = 0
            last = None  # (slot, beta - 1) of the last actuation so far
            for i in range(8):
                d, e = block >> 2 * i & 1, block >> 2 * i + 1 & 1
                state, actuated = step(state, SlotEvents(bool(d), bool(e)))
                data |= d << i
                if actuated:
                    acts |= 1 << i
                    if last is not None:
                        inner += (i - last[0]) * last[1]
                    last = (i, state.ages.aoi - 1)
            pair = data | acts << 8
            assert int(tables.inner0[pair]) + int(tables.inner1[pair]) * x == inner
            if last is not None:
                assert int(tables.last0[pair]) + int(tables.last1[pair]) * x == last[1]

class TestRun:
    def test_deterministic_for_fixed_inputs(self):
        p = make_params(0.37, 0.62)
        a = run_batched(p, 50_000, seed=99)
        b = run_batched(p, 50_000, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        p = make_params(0.37, 0.62)
        assert run_batched(p, 50_000, seed=1) != run_batched(p, 50_000, seed=2)

    def test_short_run_takes_a_tenth_as_warmup(self):
        # A 1000-slot warmup would leave none of the 500 slots to measure.
        p = make_params(0.5, 0.5)
        s = run_batched(p, 500, seed=1)
        assert s.warmup == 50

    def test_negative_seed_rejected(self):
        # numpy's own error would be a ValueError, which the CLI maps to no
        # exit code of its own.
        with pytest.raises(DomainError, match="seed"):
            run_batched(make_params(0.5, 0.5), 100, seed=-1)

    @pytest.mark.parametrize("slots, seed, message", [
        (1, -1, "^the sim route needs 2 slots or more, for two batch means, got 1$"),
        (0, -1, "^slots must be positive, got 0$"),
        (-5, -1, "^slots must be positive, got -5$"),
        (MAX_SLOTS + 1, -1, f"^slots must be at most {MAX_SLOTS}, got {MAX_SLOTS + 1}$"),
        (2**63, -1, f"^slots must be at most {MAX_SLOTS}, got {2**63}$"),
        (5, -1, "^seed must be nonnegative, got -1$"),
    ])
    def test_argument_errors_come_one_slot_then_slots_then_seed(self, slots, seed, message):
        with pytest.raises(DomainError, match=message):
            run_batched(make_params(0.5, 0.5), slots, seed)

    def test_most_slots_are_accepted(self):
        # Checked, not run: a run of that length would never end.  The
        # largest batch edge's product, batches * slots, just fits in int64.
        engine._check_run(MAX_SLOTS, 0)
        assert engine.N_BATCHES * MAX_SLOTS <= np.iinfo(np.int64).max
        assert engine.N_BATCHES * (MAX_SLOTS + 1) > np.iinfo(np.int64).max

    @pytest.mark.parametrize("knob", ["warmup", "n_batches"])
    def test_run_rule_has_no_knobs(self, knob):
        with pytest.raises(TypeError, match=knob):
            run_batched(make_params(0.5, 0.5), 100, 0, **{knob: 0})

    def test_two_slots_give_two_batches_and_finite_stderrs(self):
        # The fewest slots the rule accepts: no warmup, two one-slot batches.
        s = run_batched(make_params(0.5, 0.5), 2, seed=3)
        assert s.warmup == 0 and s.slots == 2
        assert np.all(np.isfinite([s.mean_aoi, s.mean_aoa, s.mean_aoai,
                                   s.stderr_aoi, s.stderr_aoa, s.stderr_aoai]))

    def test_saturated_arrivals_pin_every_age_to_one(self):
        s = run_batched(make_params(1.0, 1.0), 10_000, seed=4)
        assert s.mean_aoi == s.mean_aoa == s.mean_aoai == 1.0
        assert s.actuation_count == s.slots - s.warmup

    def test_certain_data_gives_harvest_limited_actuation_age(self):
        s = run_batched(make_params(1.0, 0.5), 1_000_000, seed=11)
        assert s.mean_aoi == 1.0
        assert s.mean_aoa == pytest.approx(2.0, rel=0.01)

    def test_mean_aoai_dominates_exactly(self):
        for seed in (0, 1, 2):
            s = run_batched(make_params(0.3, 0.6), 20_000, seed=seed)
            assert s.mean_aoa <= s.mean_aoai
            assert s.mean_aoi <= s.mean_aoai

    @pytest.mark.parametrize("l1, l2, seed, slots, expected, expected_stderrs", [
        (0.1, 0.3, 3, 5_000_001,
         (9.99028405875494, 9.811979233450844, 10.165402447408992, 477136),
         (0.013342360796116393, 0.013922491703519396, 0.012869461878777601)),
        (1.0, 0.3, 2, 2_100_000,
         (1.0, 3.335963792282039, 3.335963792282039, 629201),
         (0.0, 0.004804956475903376, 0.004804956475903376)),
        (0.05, 0.05, 1, 10_000_000,
         (19.987170217021703, 23.24249694969497, 27.905376537653765, 339361),
         (0.042555508688176695, 0.042784435343242895, 0.05021818013103326)),
    ])
    def test_seeded_runs_across_chunk_edges_match_frozen_values(
            self, l1, l2, seed, slots, expected, expected_stderrs):
        # Frozen values: a change to the draw order, the scan or the age sums
        # shows here.  Every run spans several `_CHUNK`-slot chunks; the
        # last is the `simulate` run of the benchmark's `sim` workload.  The
        # frozen means lie within 3 standard errors of the closed forms.
        p = make_params(l1, l2)
        s = run_batched(p, slots, seed)
        assert (s.mean_aoi, s.mean_aoa, s.mean_aoai, s.actuation_count) == expected
        assert (s.stderr_aoi, s.stderr_aoa, s.stderr_aoai) == expected_stderrs
        ref = analytic.averages(p)
        for mean, exact, stderr in zip(expected, (ref.aoi_bar, ref.aoa_bar, ref.aoai_bar),
                                       expected_stderrs):
            assert abs(mean - exact) <= 3 * stderr

    def test_memory_peak_does_not_grow_with_the_run(self):
        # A run reuses one byte buffer of `_CHUNK` slots, four a byte, and
        # one flag and one threshold buffer of `_DRAW` slots, draws each piece
        # of `_DRAW` slots into a fresh array of as many outputs, packs its
        # flags into the chunk's bytes, and tallies each chunk from its
        # blocks' event bytes, with no per-slot or per-event array, so 4e6
        # slots, 16 chunks, allocate at most a fixed amount at any one time
        # (tracemalloc counts numpy's buffers), at dense and sparse rates
        # alike.  The block tables, built once per process, are built before
        # the measurement.
        _block_table()
        for rate in (0.9, 0.05):
            tracemalloc.start()
            try:
                run_batched(make_params(rate, rate), 4_000_000, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 2 ** 20, rate

    def test_table_build_peak_is_the_tables_and_at_most_a_mebibyte(self):
        # The tables are built one start state and one part at a time, from
        # uint8 and uint16 temporaries, so the build's transient stays small.
        _block_table.cache_clear()
        tracemalloc.start()
        try:
            tables = _block_table()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sum(array.nbytes for array in tables) + 2 ** 20

    def test_a_run_starts_no_thread(self, monkeypatch):
        # Every piece is drawn on the calling thread, whatever CPUs it may use.
        def start(thread):
            raise AssertionError(f"a run started {thread}")
        monkeypatch.setattr(threading.Thread, "start", start)
        s = run_batched(make_params(0.5, 0.5), 3 * engine._CHUNK + 5, seed=1)
        assert s.slots == 3 * engine._CHUNK + 5

    def test_actuation_rate_matches_age_one_mass(self):
        p = make_params(0.2, 0.1)
        seeds = analytic.aoa_seed_probs(p)
        s = run_batched(p, 10_000_000, seed=42)
        rate = s.actuation_count / (s.slots - s.warmup)
        assert rate == pytest.approx(seeds.v100 + seeds.v101, abs=1e-3)

    @pytest.mark.parametrize("l1", [0.1, 0.5, 0.9])
    def test_stderr_aoi_matches_the_exact_variance(self, l1):
        """stderr_aoi^2 times the measured slots estimates the aoi's exact variance.

        Data arrivals are i.i.d., so the aoi is a renewal-reward process: a
        cycle of G ~ Geometric(lambda1) slots has ages 1..G, and the time
        average over n slots has variance sigma^2 / n + o(1/n), with sigma^2 =
        lambda1 E[(G (G + 1) / 2 - G / lambda1)^2] = (1 - lambda1)(2 - lambda1)
        / lambda1^3.  With 20 normal batch means, each ratio below is
        chi^2_19 / 19, and the mean of 20 seeds' ratios is chi^2_380 / 380,
        which leaves [0.7, 1.3] with probability 7.3e-5.  A standard error
        missing its sqrt(20) would give 20 or 1/20.  At 2 x 10^5 slots and
        lambda2 = 0.5, seeds 1-20 gave 0.90, 1.06 and 1.07 at lambda1 = 0.1,
        0.5 and 0.9.
        """
        sigma2 = (1 - l1) * (2 - l1) / l1 ** 3
        ratios = []
        for seed in range(1, 21):
            s = run_batched(make_params(l1, 0.5), 200_000, seed=seed)
            ratios.append(s.stderr_aoi ** 2 * (s.slots - s.warmup) / sigma2)
        assert 0.7 <= sum(ratios) / len(ratios) <= 1.3


class TestEventsCsv:
    def _write(self, tmp_path, text):
        f = tmp_path / "events.csv"
        f.write_text(text)
        return f

    def test_round_trip(self, tmp_path):
        # One row a slot: its data flag, then its energy flag.
        flags = read_events_csv(self._write(tmp_path, "t,data,energy\n1,0,1\n2,1,0\n3,1,1\n"))
        assert flags.dtype == bool
        assert flags.tolist() == [[False, True], [True, False], [True, True]]

    def test_whitespace_padded_fields_parse(self, tmp_path):
        f = self._write(tmp_path, "t,data,energy\n1, 0 ,1\n 2 ,1,\t0\n")
        assert read_events_csv(f).tolist() == [[False, True], [True, False]]

    def test_empty_file(self, tmp_path):
        with pytest.raises(DomainError, match="line 1"):
            read_events_csv(self._write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(DomainError, match="line 2"):
            read_events_csv(self._write(tmp_path, "t,data,energy\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(DomainError, match="line 1"):
            read_events_csv(self._write(tmp_path, "slot,d,e\n1,0,0\n"))

    def test_out_of_range_value_names_line(self, tmp_path):
        with pytest.raises(DomainError, match="line 3"):
            read_events_csv(self._write(tmp_path, "t,data,energy\n1,0,0\n2,2,0\n"))

    def test_non_consecutive_slots_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="line 3"):
            read_events_csv(self._write(tmp_path, "t,data,energy\n1,0,0\n5,0,0\n"))

    def test_blank_line_takes_no_slot_number(self, tmp_path):
        plain = read_events_csv(self._write(tmp_path, "t,data,energy\n1,0,0\n2,1,0\n"))
        gapped = read_events_csv(self._write(tmp_path, "t,data,energy\n1,0,0\n\n2,1,0\n"))
        assert gapped.tolist() == plain.tolist() == [[False, False], [True, False]]

    def test_slot_error_names_physical_line_after_blank(self, tmp_path):
        with pytest.raises(DomainError, match="line 4: slot index must be 2, got 3"):
            read_events_csv(self._write(tmp_path, "t,data,energy\n1,0,0\n\n3,1,0\n"))
        # A quoted field that spans two lines makes one record of lines 3 and 4.
        spanning = 't,data,energy\n1,0,1\n"2\n",1,0\n3,0,0\n4,x,0\n'
        with pytest.raises(DomainError, match="line 6: non-integer value"):
            read_events_csv(self._write(tmp_path, spanning))

    def test_parsed_file_holds_at_most_three_bytes_a_row(self, tmp_path):
        # Two flags of one byte a row, and no more than one byte a row
        # besides; a list of one `SlotEvents` pointer a row took 8.
        flags = np.random.default_rng(3).random((100_000, 2)) < 0.5
        f = self._write(tmp_path, "t,data,energy\n" + "".join(
            f"{t},{int(d)},{int(e)}\n" for t, (d, e) in enumerate(flags, start=1)))
        tracemalloc.start()
        try:
            events = read_events_csv(f)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 3 * len(flags)
        assert np.array_equal(events, flags)

    def test_non_integer_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="line 2"):
            read_events_csv(self._write(tmp_path, "t,data,energy\n1,x,0\n"))
