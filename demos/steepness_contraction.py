"""Convolution makes intensity tails steeper until one exponential is left.

A mixture of exponential decay rates, viewed as a Poisson intensity tail,
loses its slow components under repeated increment convolution followed by
re-normalization: mass migrates to the largest rate, level intervals shrink,
and the first-gap probability strictly decreases along the way.
"""

import numpy as np

from edgerace import (convolve_g, gap_functional, gaussian, measure, normalize,
                      steeper)

MODEL = gaussian(0.0, 1.0)
LEVELS = np.geomspace(1e-4, 1e4, 81)

rho = measure([(1.0, 0.5), (2.0, 0.5)])
print("starting measure: atoms", rho.u.tolist(), "weights", rho.w.tolist())

print()
print(f"{'iter':>4} {'weight at u=1':>14} {'weight at u=2':>14} "
      f"{'P(gap > 1)':>11} {'steeper?':>9}")
current = rho
for it in range(1, 16):
    nxt = convolve_g(current, MODEL)
    print(f"{it:4d} {nxt.w[0]:14.6f} {nxt.w[1]:14.6f} "
          f"{gap_functional(nxt, 1.0):11.6f} {str(steeper(nxt, current, LEVELS)):>9}")
    current = nxt
    if current.w[0] < 1e-3:
        print(f"slow atom below 1e-3 after {it} iterations")
        break

print()
print("pure exponentials are the fixed points: a single atom only shifts")
single = normalize(measure([(1.5, 1.0)]))
out = convolve_g(single, MODEL)
print(f"single atom u=1.5: weight {single.w[0]:.12f} -> {out.w[0]:.12f}, "
      f"P(gap > 1) {gap_functional(single, 1.0):.12f} -> {gap_functional(out, 1.0):.12f}")
