import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aoa_lab import analytic, engine
from aoa_lab.core import AgeVector, Params, SlotEvents, SystemState, make_params
from aoa_lab.engine import (_TRANSITIONS, EngineState, _block_table,
                            _scan_events, _simulate, events_from_arrays,
                            initial_state,
                            occupancy_distribution, read_events_csv, run,
                            run_batched, run_trace, step)
from aoa_lab.errors import DomainError

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
        # 511..513, 4096, 4097 and 3*512 + 5 cross the edges of the scan's
        # 64-block (512-slot) groups; 7..17 those of its 8-slot blocks.
        rng = np.random.default_rng(1234)
        for cache, battery in ((0, 0), (0, 1), (1, 0)):
            for n in (1, 7, 8, 9, 16, 17, 511, 512, 513, 1000, 3 * 512 + 5, 4096, 4097, 5000):
                data = rng.random(n) < 0.5
                energy = rng.random(n) < 0.5
                act, stt, c, b = _scan_events(data, energy, cache, battery)
                assert len(act) == len(stt) == n
                state = _state(cache, battery, 1, 1, 1)
                for t, (x, y) in enumerate(zip(data.tolist(), energy.tolist())):
                    state, actuated = step(state, SlotEvents(x, y))
                    assert act[t] == actuated
                    assert stt[t] == state.system.cache * 2 + state.system.battery
                assert (c, b) == (state.system.cache, state.system.battery)

    def test_block_table_entries_are_eight_slot_steps(self):
        # A block is `data bits | energy bits << 8`, bit i holding slot i;
        # both arrays are indexed by `block << 2 | state`.
        table, final = _block_table()
        rng = np.random.default_rng(77)
        blocks = [0x0000, 0x00FF, 0xFF00, 0xFFFF] + rng.integers(0, 1 << 16, 4096).tolist()
        for block in blocks:
            for start in range(3):
                entry = int(table[block << 2 | start])
                state = start
                for i in range(8):
                    code = (block >> i & 1) | (block >> (8 + i) & 1) << 1
                    expected = _TRANSITIONS[state * 4 + code]
                    assert entry >> (8 * i) & 0xFF == expected
                    state = expected & 3
                assert final[block << 2 | start] == state

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.001, max_value=1.0),
           st.floats(min_value=0.001, max_value=1.0),
           st.integers(min_value=1, max_value=2 ** 63 - 1),
           st.integers(min_value=2, max_value=1500),
           st.sampled_from([engine._CHUNK, 7, 8, 9, 511, 512, 513]),
           st.integers(min_value=0, max_value=200),
           st.integers(min_value=1, max_value=4))
    # A 7-slot chunk makes every carry (occupancy, last arrival, last
    # actuation, aoi at the last actuation) cross chunk edges inside the
    # warmup and inside each measured batch; 7, 8 and 9 cut chunks short of,
    # at and past the 8-slot block of the scan, and 511, 512 and 513 its
    # 64-block group.  Rates down to 0.001 draw
    # chunks and runs without an arrival or an actuation.
    @example(0.3, 0.6, 5, 1000, 7, 100, 4)
    @example(1.0, 1.0, 3, 300, 9, 20, 3)  # an arrival and an actuation every slot
    @example(0.001, 0.5, 1, 50, 8, 10, 2)  # no arrival, so no actuation
    def test_fast_path_matches_reference_step_loop(self, l1, l2, seed, slots, chunk,
                                                   warmup, n_batches):
        warmup = min(warmup, slots - 1)
        n_batches = min(n_batches, slots - warmup)
        p = make_params(l1, l2)
        # Reconstruct the exact event stream the fast path consumes.
        u = np.random.default_rng(seed).random((slots, 2))
        events = [SlotEvents(bool(u[t, 0] < l1), bool(u[t, 1] < l2)) for t in range(slots)]
        traj = run_trace(events)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_CHUNK", chunk)
            acc = _simulate(p, slots, seed, warmup=warmup, n_batches=n_batches)
        edges = acc.batch_edges.tolist()
        assert edges[0] == warmup and edges[-1] == slots
        for b in range(n_batches):
            batch = traj[edges[b]:edges[b + 1]]
            assert acc.sum_aoi[b] == sum(s.ages.aoi for s, _ in batch)
            assert acc.sum_aoa[b] == sum(s.ages.aoa for s, _ in batch)
            assert acc.sum_aoai[b] == sum(s.ages.aoai for s, _ in batch)
        measured = traj[warmup:]
        occupancy = np.bincount([s.system.cache * 2 + s.system.battery for s, _ in measured],
                                minlength=3)
        assert acc.occupancy.tolist() == occupancy.tolist()
        assert acc.actuations == sum(act for _, act in measured)
        last = traj[-1][0].system
        assert (acc.final_cache, acc.final_battery) == (last.cache, last.battery)


class TestRun:
    def test_deterministic_for_fixed_inputs(self):
        p = make_params(0.37, 0.62)
        a = run(p, 50_000, seed=99, warmup=500)
        b = run(p, 50_000, seed=99, warmup=500)
        assert a == b

    def test_different_seeds_differ(self):
        p = make_params(0.37, 0.62)
        assert run(p, 50_000, seed=1, warmup=0) != run(p, 50_000, seed=2, warmup=0)

    def test_slots_not_exceeding_warmup_rejected(self):
        with pytest.raises(DomainError):
            run(make_params(0.5, 0.5), 100, seed=1, warmup=100)

    def test_negative_seed_rejected(self):
        # numpy's own error would be a ValueError, which the CLI maps to no
        # exit code of its own.
        with pytest.raises(DomainError, match="seed"):
            run(make_params(0.5, 0.5), 100, seed=-1, warmup=0)

    def test_saturated_arrivals_pin_every_age_to_one(self):
        s = run(make_params(1.0, 1.0), 10_000, seed=4, warmup=0)
        assert s.mean_aoi == s.mean_aoa == s.mean_aoai == 1.0
        assert s.actuation_count == 10_000

    def test_certain_data_gives_harvest_limited_actuation_age(self):
        s = run(make_params(1.0, 0.5), 1_000_000, seed=11, warmup=1000)
        assert s.mean_aoi == 1.0
        assert s.mean_aoa == pytest.approx(2.0, rel=0.01)

    def test_mean_aoai_dominates_exactly(self):
        for seed in (0, 1, 2):
            s = run(make_params(0.3, 0.6), 20_000, seed=seed, warmup=0)
            assert s.mean_aoa <= s.mean_aoai
            assert s.mean_aoi <= s.mean_aoai

    def test_warmup_drops_initial_transient(self):
        p = make_params(0.2, 0.9)
        full = run(p, 200_000, seed=7, warmup=0)
        trimmed = run(p, 200_000, seed=7, warmup=1000)
        assert trimmed.slots == full.slots
        assert trimmed.warmup == 1000
        assert trimmed.mean_aoi != full.mean_aoi  # means taken over different windows

    def test_batched_sums_consistent_with_plain_run(self):
        p = make_params(0.45, 0.3)
        plain = run(p, 100_000, seed=5, warmup=1000)
        summary, means, stderrs = run_batched(p, 100_000, seed=5, warmup=1000, n_batches=20)
        assert summary == plain
        assert means[0] == plain.mean_aoi
        assert np.all(stderrs > 0)

    def test_occupancy_converges_to_stationary_distribution(self):
        # Total-variation distance to the 3-state stationary law.
        from aoa_lab.chains import build_system_chain, stationary

        for l1, l2 in [(0.5, 0.5), (0.2, 0.7), (0.9, 0.4)]:
            p = make_params(l1, l2)
            pi = stationary(build_system_chain(p)).probs
            occ = occupancy_distribution(p, 500_000, seed=13)
            assert 0.5 * np.abs(occ - pi).sum() < 0.01
        occ = occupancy_distribution(make_params(0.5, 0.5), 1_000_000, seed=13)
        assert 0.5 * np.abs(occ - np.array([0.4, 0.4, 0.2])).sum() < 0.01

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
        summary, _, stderrs = run_batched(make_params(l1, l2), slots, seed, warmup=1000)
        assert (summary.mean_aoi, summary.mean_aoa, summary.mean_aoai,
                summary.actuation_count) == expected
        assert tuple(stderrs.tolist()) == expected_stderrs

    def test_memory_peak_does_not_grow_with_the_run(self):
        # A run reuses one draw buffer of `_CHUNK` slots, and each chunk's
        # temporaries are freed before the next, so 4e6 dense-rate slots, 16
        # chunks, allocate at most 32 MiB at any one time (tracemalloc counts
        # numpy's buffers).  The block table, built once per process, is
        # built before the measurement.
        _block_table()
        tracemalloc.start()
        try:
            run_batched(make_params(0.9, 0.9), 4_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20

    def test_actuation_rate_matches_age_one_mass(self):
        p = make_params(0.2, 0.1)
        seeds = analytic.aoa_seed_probs(p)
        s = run(p, 10_000_000, seed=42, warmup=0)
        rate = s.actuation_count / s.slots
        assert rate == pytest.approx(seeds.actuation_probability, abs=1e-3)


class TestEventsCsv:
    def _write(self, tmp_path, text):
        f = tmp_path / "events.csv"
        f.write_text(text)
        return f

    def test_round_trip(self, tmp_path):
        f = self._write(tmp_path, "t,data,energy\n1,0,1\n2,1,0\n")
        assert read_events_csv(f) == [SlotEvents(False, True), SlotEvents(True, False)]

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
        assert gapped == plain == [SlotEvents(False, False), SlotEvents(True, False)]

    def test_slot_error_names_physical_line_after_blank(self, tmp_path):
        with pytest.raises(DomainError, match="line 4: slot index must be 2, got 3"):
            read_events_csv(self._write(tmp_path, "t,data,energy\n1,0,0\n\n3,1,0\n"))

    def test_non_integer_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="line 2"):
            read_events_csv(self._write(tmp_path, "t,data,energy\n1,x,0\n"))
