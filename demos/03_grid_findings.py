#!/usr/bin/env python3
# Sweep the closed forms over a grid and surface the qualitative findings:
#
#  * the average actuation age is NOT monotone in the data rate when energy
#    is scarce: past a point, pushing more packets makes actions older,
#    because fresh arrivals keep displacing the cached packet that the next
#    harvest would have actuated;
#  * nor in the energy rate when data is scarce: `validation.findings`
#    reports every neighbour step of the grid, on either axis, where it rises;
#  * the average actuated-information age IS strictly decreasing in both
#    rates;
#  * both surfaces are only approximately symmetric in their two arguments;
#  * in the opposite corner (data scarce, energy rich) the mean actuation
#    age even drops below the mean information age, 1/lambda1.

import numpy as np

from aoa_lab import averages, make_params
from aoa_lab.validation import findings

grid = np.round(np.arange(0.1, 1.0, 0.1), 12)

print("average actuation age, lambda2 = 0.1 row:")
row = [averages(make_params(l1, 0.1)).aoa_bar for l1 in grid]
for l1, v in zip(grid, row):
    bar = "#" * int(40 * (v - min(row)) / (max(row) - min(row)) + 1)
    print(f"  lambda1={l1:.1f}  {v:7.4f}  {bar}")
dip = grid[int(np.argmin(row))]
print(f"  -> interior minimum near lambda1={dip:.1f}; beyond it, more data "
      "packets make actions OLDER.\n")

# The findings come from the closed forms alone: no route runs.
_, witnesses, _, _ = findings([make_params(a, b) for a in grid for b in grid])
print("neighbour steps where the average actuation age rises with lambda2:")
for axis, l1, lo, hi in witnesses:
    if axis == "lambda2":
        print(f"  lambda1={l1:.1f}  lambda2 {lo:.1f} -> {hi:.1f}")
print("  -> with data scarce, more energy makes actions OLDER too: at")
print("     lambda2 = 1 every packet is actuated on arrival, so the actuation")
print("     age climbs to the information age 1/lambda1 (see below).\n")

aoa = np.array([[averages(make_params(a, b)).aoa_bar for b in grid] for a in grid])
aoai = np.array([[averages(make_params(a, b)).aoai_bar for b in grid] for a in grid])
aoi = np.array([[1.0 / a for _ in grid] for a in grid])

dec_l1 = np.all(np.diff(aoai, axis=0) < 0)
dec_l2 = np.all(np.diff(aoai, axis=1) < 0)
print(f"actuated-information age strictly decreasing in lambda1: {dec_l1}, "
      f"in lambda2: {dec_l2}")

sym_aoa = np.max(np.abs(aoa - aoa.T) / aoa)
sym_aoai = np.max(np.abs(aoai - aoai.T) / aoai)
print(f"symmetry deviation (max relative): aoa {sym_aoa:.3f}, aoai {sym_aoai:.3f}")

viol = [(grid[i], grid[j]) for i in range(len(grid)) for j in range(len(grid))
        if aoa[i, j] < aoi[i, j]]
print(f"\npoints where mean actuation age < mean information age: {len(viol)}")
print("  " + ", ".join(f"({a:.1f},{b:.1f})" for a, b in viol))
print("  (the battery regularizes inter-actuation gaps: short waits for data")
print("   get penalized by energy waits, long ones do not, so the actuation")
print("   process is less bursty than the arrival process)")

np.savetxt("grid_findings.csv",
           np.column_stack([np.repeat(grid, len(grid)),
                            np.tile(grid, len(grid)),
                            aoi.ravel(), aoa.ravel(), aoai.ravel()]),
           delimiter=",", header="lambda1,lambda2,aoi,aoa,aoai", comments="")
print("\nwrote grid_findings.csv (plot-ready)")
