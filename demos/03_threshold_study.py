"""A small code-capacity threshold study for the rotated surface code.

Under independent Z dephasing the surface code has a threshold near
10%: below it, larger distances fail less often; above it, more often.
This script runs split (Z-only) decoding at d = 3 and 5 over a grid of
physical error rates, locates the crossing of the two failure curves,
and cross-checks the d = 3 Monte Carlo against the exact rate.

Runtime is a few seconds on a 2-core machine; raise ``SAMPLES`` for tighter
error bars.
"""
from __future__ import annotations

import numpy as np

from qtrellis import ChannelSpec, builtin, exact_rate, run_montecarlo
from qtrellis.sim import build_trellises

SAMPLES = 50000
GRID = np.arange(0.085, 0.1151, 0.005)

curves = {}
for d in (3, 5):
    code = builtin("rotated_surface", d)
    trellises = build_trellises(code, "css")
    pts = run_montecarlo(
        code, trellises, "dephasing_z", GRID, SAMPLES, seed=100 + d, decoder="css"
    )
    curves[d] = pts
    print(f"d = {d}")
    for pt in pts:
        print(
            f"  p = {pt.p_phys:.3f}  failure rate = {pt.rate_uncond:.4f}"
            f"  (95% CI on conditional rate: [{pt.ci_lo:.4f}, {pt.ci_hi:.4f}])"
        )

# Locate the crossing of the two curves by linear interpolation on the
# sign changes of their difference.
ya = np.array([pt.rate_uncond for pt in curves[3]])
yb = np.array([pt.rate_uncond for pt in curves[5]])
diff = yb - ya
for i in range(len(GRID) - 1):
    if diff[i] == 0 or diff[i] * diff[i + 1] < 0:
        frac = diff[i] / (diff[i] - diff[i + 1])
        crossing = GRID[i] + frac * (GRID[i + 1] - GRID[i])
        print(f"\ncurves cross near p = {crossing:.4f} (threshold estimate)")
        break
else:
    print("\nno crossing on this grid; widen it or raise SAMPLES")

# For d = 3 the failure rate is cheap to compute exactly: decode each of
# the 2^4 Z-noise syndromes once, and count the members of each weight in
# its correction's coset of the Z stabilizers on the stabilizer trellis.
code3 = builtin("rotated_surface", 3)
trellises3 = build_trellises(code3, "css")
print("\nd = 3 sanity check, exact vs. Monte Carlo")
for p_phys, pt in zip(GRID[::3], curves[3][::3]):
    exact = exact_rate(code3, ChannelSpec("dephasing_z", p_phys), "css", trellises=trellises3)
    print(f"  p = {p_phys:.3f}  exact = {exact:.4f}  mc = {pt.rate_uncond:.4f}")
