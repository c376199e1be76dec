"""
How selection cost scales with n
================================

Subset selection only pays off if choosing the rows is much cheaper
than fitting on all of them. This demo times each selector over a grid
of dataset sizes with the covariate count and subset size held fixed,
using the harness that discards a warm-up repetition and reports mean
and median wall-clock seconds, measured with the process's OpenBLAS
libraries pinned to one thread for the duration of the scan.
"""

import numpy as np

from subdata import run_timing

n_values = [2_000, 8_000, 32_000]
records = run_timing(n_values, p=20, k=200,
                     selectors=["levss", "iboss", "oss", "uniform"],
                     reps=3, base_seed=5)

print(f"{'n':>7} {'selector':<9} {'mean s':>9} {'median s':>9}")
for rec in records:
    print(f"{rec.n:>7} {rec.selector:<9} {rec.mean_seconds:>9.5f} "
          f"{rec.median_seconds:>9.5f}")

# the leverage method is dominated by one thin SVD, so its cost grows
# close to linearly in n; a log-log slope near 1 confirms that
means = {(r.selector, r.n): r.mean_seconds for r in records}
levss = [means[("levss", n)] for n in n_values]
slope = np.polyfit(np.log10(n_values), np.log10(levss), 1)[0]
print(f"\nlevss log-log slope across the grid: {slope:.2f}")

# the greedy orthogonal method re-scores every remaining row for each
# of the k picks, which is why it falls behind as n grows
ratio = means[("oss", n_values[-1])] / means[("levss", n_values[-1])]
print(f"oss / levss time at n={n_values[-1]}: {ratio:.1f}x")
