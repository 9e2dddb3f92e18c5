#!/usr/bin/env python3
# Compute the same three averages by every route the library offers and show
# how tightly they agree: exact closed forms, a seeded Monte Carlo run, the
# truncated Markov chains, and the recursive level series.

from aoa_lab import (aoa_series_mean, averages, build_aoa_chain,
                     build_aoai_chain, choose_cap, make_params, mean_age, run,
                     stationary)

p = make_params(0.5, 0.5)
print(f"scenario: lambda1={p.lambda1}, lambda2={p.lambda2}")

ref = averages(p)
print(f"\nclosed forms:      aoi={ref.aoi_bar:.9f}  aoa={ref.aoa_bar:.9f}  "
      f"aoai={ref.aoai_bar:.9f}")

sim = run(p, slots=2_000_000, seed=7, warmup=1000)
print(f"simulation:        aoi={sim.mean_aoi:.9f}  aoa={sim.mean_aoa:.9f}  "
      f"aoai={sim.mean_aoai:.9f}   ({sim.slots:,} slots, seed {sim.seed})")

cap = choose_cap(p, tail_eps=1e-10)
aoa_chain = build_aoa_chain(p, cap)
aoa_mean, aoa_err = mean_age(stationary(aoa_chain), aoa_chain)
aoai_chain = build_aoai_chain(p, cap)
aoai_mean, aoai_err = mean_age(stationary(aoai_chain), aoai_chain)
print(f"truncated chains:  cap={cap}          aoa={aoa_mean:.9f}  "
      f"aoai={aoai_mean:.9f}   (error estimates {aoa_err:.1e}, {aoai_err:.1e})")

series = aoa_series_mean(p)
print(f"level series:                         aoa={series:.9f}")

print("\nrelative deviations from the closed forms:")
print(f"  sim    aoa: {abs(sim.mean_aoa - ref.aoa_bar) / ref.aoa_bar:.2e}   "
      f"aoai: {abs(sim.mean_aoai - ref.aoai_bar) / ref.aoai_bar:.2e}")
print(f"  chain  aoa: {abs(aoa_mean - ref.aoa_bar) / ref.aoa_bar:.2e}   "
      f"aoai: {abs(aoai_mean - ref.aoai_bar) / ref.aoai_bar:.2e}")
print(f"  series aoa: {abs(series - ref.aoa_bar) / ref.aoa_bar:.2e}")
