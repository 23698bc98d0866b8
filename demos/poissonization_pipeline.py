"""From an exact leader law to a Poisson surrogate to an atomic measure.

For a fixed starting configuration, the leader's position after tau steps
has an exact product law; replacing it by exp(-expected count) is the
Poisson surrogate, and the two merge as the horizon grows.  The expected
count tail itself is summarized by a small measure of exponential atoms,
whose transform reproduces the tail near the front and whose Poisson samples
reproduce the evolved gap law.
"""

import numpy as np

from edgerace import (Configuration, TailIntensity, extract_laplace, gaussian,
                      ks_two_sample, law_distance, leader_laws, sample, sample_rem,
                      transform, z_front)
from edgerace.streams import generator, substream

MODEL = gaussian(0.0, 1.0)
base = sample_rem(1.0, 0.0, 10_000, (21,))
omega = Configuration(base.positions, np.inf)

print("== exact law vs Poisson surrogate ==")
for tau in (1, 4, 16):
    exact, surrogate = leader_laws(omega, MODEL, tau)
    dist = law_distance(exact, surrogate)
    print(f"tau {tau:3d}: front at {z_front(omega, MODEL, tau):7.3f}, "
          f"law distance {dist:.5f}")

print()
print("== extracted measure ==")
tau = 16
ext = extract_laplace(omega, MODEL, tau)
rho = ext.measure
print(f"atoms: {rho.n_atoms}, total weight {ext.total_weight:.4f}, "
      f"mass-weighted center {np.dot(rho.u, rho.w) / rho.w.sum():.3f}")
for x in (-2.0, 0.0, 2.0):
    from edgerace import expected_count_above

    r = transform(rho, x)
    f = expected_count_above(omega, MODEL, tau, ext.z + x)
    print(f"transform at {x:+.0f}: {r:8.4f}   tail count there: {f:8.4f}")

print()
print("== round trip: resample the intensity vs evolve the configuration ==")
reps = 400
rng = generator((22,))
arrivals = np.cumsum(rng.exponential(size=(reps, 2)), axis=1)
pts = TailIntensity(rho).inverse(arrivals) + ext.z
gap_resampled = pts[:, 0] - pts[:, 1]
gap_evolved = np.empty(reps)
for r in range(reps):
    draws = sample(MODEL, tau * omega.size, substream((23,), r))
    walk = omega.positions + draws.reshape(tau, omega.size).sum(axis=0)
    two = np.partition(walk, walk.size - 2)[-2:]
    gap_evolved[r] = two.max() - two.min()
res = ks_two_sample(gap_resampled, gap_evolved)
print(f"first-gap KS resampled vs evolved: {res.statistic:.4f} "
      f"(critical at 1%: {res.critical[0.01]:.4f})")
