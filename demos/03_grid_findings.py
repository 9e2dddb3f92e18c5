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

import dataclasses

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

# The findings come from the closed forms alone, no route runs, and they are
# the ones `aoa-lab validate` prints for the same grid.
sym_dev, witnesses, monotone, violations = findings(
    [make_params(a, b) for a in grid for b in grid])
print("neighbour steps where the average actuation age rises with lambda2:")
for axis, l1, lo, hi in witnesses:
    if axis == "lambda2":
        print(f"  lambda1={l1:.1f}  lambda2 {lo:.1f} -> {hi:.1f}")
print("  -> with data scarce, more energy makes actions OLDER too: at")
print("     lambda2 = 1 every packet is actuated on arrival, so the actuation")
print("     age climbs to the information age 1/lambda1 (see below).\n")

print(f"actuated-information age falls at every neighbour step: {monotone}")
print(f"symmetry deviation of aoa and aoai (max relative): {sym_dev:.3f}")

print(f"\npoints where the mean ordering aoi <= aoa <= aoai fails: {len(violations)}")
for a, b, msg in violations:
    print(f"  ({a:.1f},{b:.1f}): {msg}")
print("  (the battery regularizes inter-actuation gaps: short waits for data")
print("   get penalized by energy waits, long ones do not, so the actuation")
print("   process is less bursty than the arrival process)")

table = [(a, b, *dataclasses.astuple(averages(make_params(a, b)))) for a in grid for b in grid]
np.savetxt("grid_findings.csv", table, delimiter=",",
           header="lambda1,lambda2,aoi,aoa,aoai", comments="")
print("\nwrote grid_findings.csv (plot-ready)")
