"""Bessel kernels, the capacity threshold alpha p = ell, and the edge capacity.

G_2 on the line is e^{-|x|}/2 exactly; a singleton has vanishing
capacity iff alpha p <= ell, and the refinement history shows the decay
on one side of the threshold and the settling on the other.  The rows
are plot-ready CSV.  The weighted edge capacity of two points on the
edge of the quarter wedge (N = 3, k = 2, gamma = 4) is positive below
the critical exponent q_c = 5/3 and vanishes above it.
"""

import numpy as np

from wedgecap import (bessel_capacity, bessel_kernel_radial, critical_exponents,
                      rho_capacity)

xs = np.linspace(0.2, 3.0, 6)
print("r,G2,closed_form")
for x, g in zip(xs, bessel_kernel_radial(xs, 2.0, 1)):
    print(f"{x:.3f},{g:.12f},{np.exp(-x) / 2:.12f}")

print()
for alpha in (0.4, 0.6):
    r = bessel_capacity(np.array([0.0]), alpha, 2.0, resolution=0.02)
    hist = "  ".join("h=%.3g: %.4f" % hv for hv in r.history)
    print(f"alpha={alpha}: verdict={r.verdict:10s} limit={r.limit}  [{hist}]")

print()
edge = critical_exponents(3, 2, 4.0)
for q in (1.5, 1.8):
    r = rho_capacity(np.array([[0.0], [1.0]]), edge, q)
    hist = "  ".join("eps=%.3g: %.4g" % ev for ev in r.history)
    print(f"edge q={q} (q_c={edge.q_c:.4f}): verdict={r.verdict:10s} [{hist}]")
