import itertools
import multiprocessing
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoa_lab import analytic, engine
from aoa_lab.core import AgeVector, Params, SlotEvents, SystemState, make_params
from aoa_lab.engine import (_TRANSITIONS, EngineState, _block_table,
                            _scan_events, _simulate, initial_state,
                            read_events_csv, run_batched, run_trace, step)
from aoa_lab.errors import DomainError

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
        rng = np.random.default_rng(1234)
        counts = [1, 2, 3] + [(1 << j) + d for j in range(2, 10) for d in (-1, 0, 1)]
        for cache, battery in ((0, 0), (0, 1), (1, 0)):
            for n in [8 * b - short for b in counts for short in (0, 5)]:
                flags = rng.random((n, 2)) < 0.5
                act, stt, c, b = _scan_events(flags, cache, battery)
                assert len(act) == len(stt) == n
                state = _state(cache, battery, 1, 1, 1)
                for t, (x, y) in enumerate(flags.tolist()):
                    state, actuated = step(state, SlotEvents(x, y))
                    assert act[t] == actuated
                    assert stt[t] == state.system.cache * 2 + state.system.battery
                assert (c, b) == (state.system.cache, state.system.battery)

    def test_block_table_entries_are_eight_slot_steps(self):
        # A block interleaves its slots' flags, bit 2i data and bit 2i+1
        # energy of slot i; `table` is indexed by `block << 2 | state` and
        # `maps` holds each block's map f as f(0) + 3 f(1) + 9 f(2).
        table, maps, _ = _block_table()
        rng = np.random.default_rng(77)
        blocks = [0x0000, 0x5555, 0xAAAA, 0xFFFF] + rng.integers(0, 1 << 16, 4096).tolist()
        for block in blocks:
            for start in range(3):
                entry = int(table[block << 2 | start])
                state = start
                for i in range(8):
                    expected = _TRANSITIONS[state * 4 + (block >> 2 * i & 3)]
                    assert entry >> (8 * i) & 0xFF == expected
                    state = expected & 3
                assert maps[block] // 3 ** start % 3 == state

    def test_compose_table_applies_two_maps_in_turn(self):
        _, _, compose = _block_table()
        for a, b in itertools.product(range(27), repeat=2):
            after = [b // 3 ** (a // 3 ** s % 3) % 3 for s in range(3)]
            assert compose[b, a] == after[0] + 3 * after[1] + 9 * after[2]
            assert compose.ravel()[a | b << 8] == compose[b, a]

    @pytest.mark.parametrize("piece", [1, 3, 8, 64, engine._DRAW])
    def test_drawn_pieces_are_the_thresholded_draws_at_their_slot(self, piece):
        # One draw function draws pieces of every length up to its buffer's,
        # odd ones among them, at slots forward and back in the stream; each
        # must be the matching rows of one long draw from the same seed.
        l1, l2 = 0.3, 0.8
        k = 4 * piece + 1000
        expected = np.random.default_rng(8).random((k, 2)) < (l1, l2)
        thr = np.empty((piece, 2))
        thr[:] = l1, l2
        draw = engine._drawer(8, thr)
        rng = np.random.default_rng(5)
        lengths = [piece, piece, 1, piece] + rng.integers(1, piece + 1, 30).tolist()
        slots = [0, piece, 2 * piece + 5, 1] + [int(rng.integers(0, k - n + 1)) for n in lengths[4:]]
        for n, slot in zip(lengths, slots):
            flags = np.empty((n, 2), dtype=bool)
            draw(flags, slot)
            assert np.array_equal(flags, expected[slot:slot + n]), (n, slot)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0.001, max_value=1.0),
           st.floats(min_value=0.001, max_value=1.0),
           st.integers(min_value=1, max_value=2 ** 63 - 1),
           st.integers(min_value=2, max_value=1500),
           st.sampled_from([engine._CHUNK, 7, 8, 9, 511, 512, 513]),
           st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=4),
           st.sampled_from([engine._DRAW, 1, 3, 8, 64]),
           st.booleans())
    # A 7-slot chunk makes every carry (occupancy, last arrival, last
    # actuation, aoi at the last actuation) cross chunk edges inside the
    # warmup and inside each measured batch; 7, 8 and 9 cut chunks short of,
    # at and past the 8-slot block of the scan, and 511, 512 and 513 at and
    # past the 64 blocks of a power-of-two scan tree.  Draws of 1, 3, 8 and
    # 64 slots put the edges of the draw pieces inside chunks and blocks.
    # Rates down to 0.001 draw chunks and runs without an arrival or an
    # actuation.  `ahead` has the helper thread and the calling thread share
    # each chunk's pieces (True) or the calling thread draw them all (False);
    # every example runs both ways.
    @example(0.3, 0.6, 5, 1000, 7, 100, 4, 3, False)
    @example(0.3, 0.6, 5, 1000, 7, 100, 4, 3, True)
    @example(1.0, 1.0, 3, 300, 9, 20, 3, 8, False)  # an arrival and an actuation every slot
    @example(1.0, 1.0, 3, 300, 9, 20, 3, 8, True)
    @example(0.001, 0.5, 1, 50, 8, 10, 2, 1, False)  # no arrival, so no actuation
    @example(0.001, 0.5, 1, 50, 8, 10, 2, 1, True)
    @example(0.4, 0.7, 9, 1500, 513, 30, 4, 64, False)
    @example(0.4, 0.7, 9, 1500, 513, 30, 4, 64, True)
    # The chunk is the warmup and the batch length: every batch edge is a
    # chunk edge, and each batch one chunk's whole range.
    @example(0.3, 0.6, 5, 1500, 300, 300, 4, 64, False)
    @example(0.3, 0.6, 5, 1500, 300, 300, 4, 64, True)
    @example(1.0, 1.0, 2, 1200, 300, 300, 3, 8, False)  # and every slot a restart
    def test_fast_path_matches_reference_step_loop(self, l1, l2, seed, slots, chunk,
                                                   warmup, n_batches, draw, ahead):
        warmup = min(warmup, slots - 1)
        n_batches = min(n_batches, slots - warmup)
        p = make_params(l1, l2)
        # Reconstruct the exact event stream the fast path consumes.
        u = np.random.default_rng(seed).random((slots, 2))
        events = [SlotEvents(bool(u[t, 0] < l1), bool(u[t, 1] < l2)) for t in range(slots)]
        traj = run_trace(events)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK", chunk)
            mp.setattr(engine, "_DRAW", draw)
            mp.setattr(engine, "_draws_ahead", lambda: ahead)
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

    def test_age_sums_match_per_slot_sums(self):
        # Every range [a, z) of 40 slots, so ranges that begin or end on an
        # age restart, ranges without one inside and ranges whose age began
        # at the carried start, far before slot 0, are all among them.
        rng = np.random.default_rng(23)
        k = 40
        for carried, density in itertools.product((-1, -10 ** 9), (0.0, 0.1, 0.5, 1.0)):
            inside = np.flatnonzero(rng.random(k) < density)
            starts = np.concatenate(([carried], inside)).astype(np.int64)
            base = rng.integers(1, 10 ** 6, len(starts))
            restarts = dict(zip(starts.tolist(), base.tolist()))
            ages, ones = [], []  # per slot, with `base` and with every base 1
            age, one = int(base[0]) - 1 - carried, -carried  # at slot -1
            for t in range(k):
                age, one = (restarts[t], 1) if t in restarts else (age + 1, one + 1)
                ages.append(age)
                ones.append(one)
            for a, z in itertools.combinations(range(k + 1), 2):
                assert engine._age_sums(starts, (1, base), a, z) == [sum(ones[a:z]),
                                                                     sum(ages[a:z])]


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
         (9.986689340530239, 9.804566752437138, 10.162281023748545, 477369),
         (0.015362188518301009, 0.015606831972805286, 0.014924940972902404)),
        (1.0, 0.3, 2, 2_100_000,
         (1.0, 3.336772748928061, 3.336772748928061, 628829),
         (0.0, 0.003761845853990246, 0.003761845853990246)),
        (0.05, 0.05, 1, 10_000_000,
         (19.944430343034302, 23.27245904590459, 27.94295919591959, 339227),
         (0.032789565060840416, 0.03458039650170059, 0.045651123460611336)),
    ])
    def test_seeded_runs_across_chunk_edges_match_frozen_values(
            self, l1, l2, seed, slots, expected, expected_stderrs):
        # Frozen values: a change to the draw order, the scan or the age sums
        # shows here.  Every run spans several `_CHUNK`-slot chunks; the
        # last is the `simulate` run of the benchmark's `sim` workload.
        s = run_batched(make_params(l1, l2), slots, seed)
        assert (s.mean_aoi, s.mean_aoa, s.mean_aoai, s.actuation_count) == expected
        assert (s.stderr_aoi, s.stderr_aoa, s.stderr_aoai) == expected_stderrs

    def test_memory_peak_does_not_grow_with_the_run(self):
        # A run reuses a draw buffer of `_DRAW` slots for each of its two
        # drawing threads, one threshold buffer of the same size and two flag
        # buffers of `_CHUNK` slots, one drawn while the other is scanned,
        # and each chunk's temporaries are freed before the next, so
        # 4e6 slots, 16 chunks, allocate at most a fixed amount at any one time
        # (tracemalloc counts numpy's buffers, on every thread): 32 MiB at
        # dense rates, whose event lists are long, and 5 MiB at sparse rates,
        # where the buffers are most of the peak.  The block table, built
        # once per process, is built before the measurement.
        _block_table()
        for rate, bound_mib in ((0.9, 32), (0.05, 5)):
            tracemalloc.start()
            try:
                run_batched(make_params(rate, rate), 4_000_000, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound_mib * 2 ** 20, rate

    @pytest.mark.parametrize("fail", [False, True])
    def test_no_thread_outlives_a_run(self, fail):
        # The helper thread is joined when the run returns and when the scan
        # raises while it is drawing the next chunk.
        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_draws_ahead", lambda: True)
            if fail:
                def scan(*args):
                    raise RuntimeError("scan failed")
                mp.setattr(engine, "_scan_events", scan)
                with pytest.raises(RuntimeError, match="scan failed"):
                    run_batched(make_params(0.5, 0.5), 3 * engine._CHUNK, seed=1)
            else:
                run_batched(make_params(0.5, 0.5), 3 * engine._CHUNK, seed=1)
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_failed_run_whose_error_is_kept(self):
        # The scan's traceback holds the replay's frame, and through it the
        # draws: the helper thread is joined all the same before the error
        # reaches the caller, which here keeps it.
        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_draws_ahead", lambda: True)

            def scan(*args):
                raise RuntimeError("scan failed")
            mp.setattr(engine, "_scan_events", scan)
            try:
                run_batched(make_params(0.5, 0.5), 3 * engine._CHUNK, seed=1)
            except RuntimeError as exc:
                kept = exc
        assert threading.active_count() == threads
        assert str(kept) == "scan failed"

    @pytest.mark.parametrize("failing", ["calling", "helper"])
    def test_draw_error_on_either_thread_reaches_the_caller(self, failing):
        # Both threads draw; the second chunk's claims fail on one of them.
        draw_claimed = engine._draw_claimed
        caller = threading.current_thread()
        calls, raised_on = [], []

        def claim(*args):
            on_caller = threading.current_thread() is caller
            if on_caller == (failing == "calling"):
                calls.append(None)
                if len(calls) == 2:
                    raised_on.append(threading.current_thread())
                    raise RuntimeError("draw failed")
            return draw_claimed(*args)

        threads = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_draws_ahead", lambda: True)
            mp.setattr(engine, "_draw_claimed", claim)
            with pytest.raises(RuntimeError, match="draw failed"):
                run_batched(make_params(0.5, 0.5), 3 * engine._CHUNK, seed=1)
        assert len(raised_on) == 1
        assert (raised_on[0] is caller) == (failing == "calling")
        assert threading.active_count() == threads

    @pytest.mark.parametrize("stalled", ["helper", "calling"])
    @pytest.mark.parametrize("l1, l2, slots, chunk, piece", [
        (0.05, 0.05, 5003, 1000, 64),
        (0.3, 0.6, 5003, 1000, 64),
        (0.9, 0.9, 4000, 1000, 64),
        (0.5, 0.5, 2503, 1000, 3),
        (0.3, 0.6, 3 * engine._CHUNK + 5, engine._CHUNK, engine._DRAW),
    ])
    def test_result_does_not_depend_on_which_thread_draws(self, l1, l2, slots, chunk, piece,
                                                          stalled):
        # The stalled thread takes the first piece of each chunk and draws it
        # only once the other thread has drawn all the rest, so the other
        # thread draws almost every piece and skips the first of each chunk,
        # and the stalled one jumps a chunk's length between its pieces.
        # 1000-slot chunks of 64-slot pieces end in a short piece, and 3-slot
        # pieces in a piece of one slot.
        drawer, draw_claimed = engine._drawer, engine._draw_claimed
        caller = threading.current_thread()
        n_chunks = -(-slots // chunk)
        taken, done = ([threading.Event() for _ in range(n_chunks)] for _ in range(2))
        pieces = {"stalled": 0, "busy": 0}

        def stalls():
            return (threading.current_thread() is caller) == (stalled == "calling")

        def stalling_drawer(seed, thr):
            draw = drawer(seed, thr)

            def stalling_draw(flags, slot):
                if stalls():
                    taken[slot // chunk].set()
                    assert done[slot // chunk].wait(60)
                pieces["stalled" if stalls() else "busy"] += 1
                draw(flags, slot)
            return stalling_draw

        def claim(draw, flags, lo, counter):
            if stalls():
                return draw_claimed(draw, flags, lo, counter)
            assert taken[lo // chunk].wait(60)
            draw_claimed(draw, flags, lo, counter)
            done[lo // chunk].set()
            return flags

        p = make_params(l1, l2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK", chunk)
            mp.setattr(engine, "_DRAW", piece)
            mp.setattr(engine, "_draws_ahead", lambda: False)
            edges, sums, actuations = _simulate(p, slots, 3, 100, 4)
            mp.setattr(engine, "_draws_ahead", lambda: True)
            mp.setattr(engine, "_drawer", stalling_drawer)
            mp.setattr(engine, "_draw_claimed", claim)
            edges2, sums2, actuations2 = _simulate(p, slots, 3, 100, 4)
        assert np.array_equal(edges2, edges) and np.array_equal(sums2, sums)
        assert actuations2 == actuations
        assert pieces["stalled"] == n_chunks
        assert pieces["stalled"] + pieces["busy"] == sum(
            -(-min(chunk, slots - lo) // piece) for lo in range(0, slots, chunk))

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_pool_workers_draw_in_place(self, method):
        # `validation.sweep`'s pool already runs one worker process per CPU.
        ctx = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
            assert pool.submit(engine._draws_ahead).result(timeout=60) is False

    def test_actuation_rate_matches_age_one_mass(self):
        p = make_params(0.2, 0.1)
        seeds = analytic.aoa_seed_probs(p)
        s = run_batched(p, 10_000_000, seed=42)
        rate = s.actuation_count / (s.slots - s.warmup)
        assert rate == pytest.approx(seeds.v100 + seeds.v101, abs=1e-3)


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
