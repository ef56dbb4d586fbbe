"""
A one-parameter family of three-rotation problems
=================================================

Three rotations about the x axis, at angles pi, pi/2 and alpha,
make a family whose critical points can be enumerated exactly: on the
x-axis circle they are roots of an even polynomial, and one extra
critical rotation sits off the circle at every alpha.  The sweep module
walks alpha across [-pi, pi] and records everything as CSV.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from rotavg.sweep import (
    build_samples,
    critical_sets,
    emit_csv,
    positive_roots,
    q2_coeffs,
    q4_coeffs,
    root_count_transitions,
    theta_min_curve,
    tie_locations,
)

# the family member at alpha = -pi/4, quadratic (p=2) cost
alpha = -math.pi / 4
print("sample angles at alpha = -pi/4:", [180, 90, math.degrees(alpha)], "deg about x")
# each polynomial is even in x, so it comes as its coefficients in W = x^2
print("p=2 polynomial coefficients in W = x^2, ascending:", np.round(q2_coeffs(alpha), 6))
print("p=4 polynomial coefficients in W = x^2, ascending:", np.round(q4_coeffs(alpha), 6))
print("p=2 positive roots:", positive_roots(q2_coeffs(alpha)))
print("p=4 positive roots:", positive_roots(q4_coeffs(alpha)))

# each root pins a candidate circle point; the residual check keeps the
# ones that really solve the critical system, plus the off-circle set
print("\nlabeled critical sets at alpha = -pi/4, p = 4:")
for rep in critical_sets(alpha, 4.0):
    print(f"  {rep.label:7s} cost = {rep.cost:12.8f}  q = {np.round(rep.q, 6)}")

# sweep the whole family once per p; transitions and ties are read at the
# family's events, where its polynomial has a multiple root or a root at
# W = 0 or 1, so any grid over the window finds them
full = np.arange(-math.pi, math.pi + 0.005, 0.01)
sweeps = {p: theta_min_curve(p, full) for p in (2.0, 4.0)}

# p=4 grows two extra root pairs inside a narrow alpha window
print("\nroot-count transitions of the p=4 polynomial:")
for a, before, after in root_count_transitions(sweeps[4.0]):
    print(f"  alpha = {a:+.6f}: {before} -> {after} positive roots")

# at exactly -pi/4 two distinct minimizing rotations tie
print("\nglobal-minimum ties, p = 4:", tie_locations(sweeps[4.0]))
print("global-minimum ties, p = 2:", tie_locations(sweeps[2.0]))

# the off-circle set never moves and its p=2 cost never changes
costs = [critical_sets(a, 2.0)[0].cost for a in np.linspace(-math.pi, math.pi, 41)]
print("\noff-circle ('black') p=2 cost over 41 alphas:", sorted(set(costs)))

# a small sweep, archived as CSV
grid = np.arange(-0.8, -0.7 + 0.005, 0.01)
records = theta_min_curve(4.0, grid)
out = Path(tempfile.mkdtemp()) / "family_sweep.csv"
emit_csv(records, out)
print(f"\nwrote {len(records)} grid points to {out}")
print("min-angle curve (alpha, theta of the winning rotation):")
for rec in records[::2]:
    thetas = ", ".join(f"{t:+.6f}" for t in rec.theta_min)
    print(f"  {rec.alpha:+.3f}: {thetas}  [{', '.join(rec.min_set_label)}]")
