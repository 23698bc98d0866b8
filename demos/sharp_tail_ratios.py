"""Shifted tail ratios of multi-step sums against the exponential prediction.

P(S_tau >= q tau + x) / P(S_tau >= q tau) approaches e^{-eta(q) x}, where
eta(q) is the tilt whose mean matches the speed demand q.  The discrepancy
shrinks as the horizon grows; an importance-sampling estimate under the
tilted walk reproduces the exact ratio with a reported standard error.
"""

from edgerace import gaussian, legendre, sum_tail, tail_ratio

MODEL = gaussian(0.0, 1.0)
Q, X = 0.3, 1.0

eta, rate, _ = legendre(MODEL, Q)
print(f"speed demand q = {Q}: tilt eta = {eta:.3f}, decay rate = {rate:.4f}")

print()
print(f"{'tau':>5} {'exact ratio':>12} {'prediction':>11} {'discrepancy':>12}")
for tau in (25, 100, 400):
    r = tail_ratio(MODEL, tau, Q, X)
    print(f"{tau:5d} {r.ratio:12.6f} {r.prediction:11.6f} "
          f"{abs(r.ratio - r.prediction):12.6f}")

print()
print("== importance sampling at tau = 100 ==")
exact = sum_tail(MODEL, 100, 30.0)
mc = sum_tail(MODEL, 100, 30.0, mc_samples=200_000, mc_stream=(31,))
print(f"exact tail      : {exact.value:.6e}")
print(f"tilted-walk mc  : {mc.value:.6e} +- {mc.se:.1e}")
print(f"plain mc at this sample size would resolve nothing: the event has "
      f"probability ~{exact.value:.0e}")
