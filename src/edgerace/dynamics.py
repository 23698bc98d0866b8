"""One-step evolution by i.i.d. increments, re-ranking, and window honesty.

Each step adds an independent increment to every particle, re-sorts by value,
and re-anchors the faithful window at the new leader; the relabeling
permutation is computed only when a caller reads it.  Particles falling
behind the window are dropped but counted, and `truncation_bias` bounds what
a hypothetical exponential continuation below the window could have
contributed, so experiments can certify that the truncation never touches
their statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import increments as inc
from .configurations import Configuration, gaps
from .streams import StreamKey, substream


@dataclass(frozen=True)
class EvolutionRecord:
    """One step from `pre` to `post`.

    `pre` is the configuration passed to `evolve` and shares its memory, as a
    `Configuration` shares its caller's array; `increments` belongs to the
    record.
    """

    pre: Configuration
    post: Configuration
    increments: np.ndarray    # indexed by pre-rank, drawn for dropped particles too
    front_displacement: float
    dropped: int

    @cached_property
    def permutation(self) -> np.ndarray:
        """Post-rank -> pre-rank index, retained particles only; equal positions
        keep their pre-rank order.  Computed on the first read."""
        moved = self.pre.positions + self.increments
        order = np.argsort(-moved)
        post = self.post.positions
        if (post[1:] == post[:-1]).any():
            # only ties among the retained make the default sort's prefix
            # differ from a stable one's
            order = np.argsort(-moved, kind="stable")
        return order[:post.size]


def evolve(config: Configuration, model: inc.IncrementModel,
           stream: StreamKey | None = None,
           increments: Sequence[float] | None = None) -> EvolutionRecord:
    """One evolution step; increments are drawn unless injected explicitly
    (injected ones are copied)."""
    n = config.size
    if increments is None:
        if stream is None:
            raise ValueError("need a stream key when increments are not injected")
        h = inc.sample(model, n, stream)
    else:
        h = np.array(increments, dtype=float)
        if h.shape != (n,):
            raise ValueError("injected increments must match the particle count")
    # descending by value with NaN last, as moved[np.argsort(-moved)]; -(-x) is x
    ranked = config.positions + h
    np.negative(ranked, out=ranked)
    ranked.sort()
    lo = ranked.searchsorted(0.0)
    if lo + 1 < n and ranked[lo + 1] == 0.0:
        # 0.0 and -0.0 tie but differ in bits: list the zeros in pre-rank order
        moved = config.positions + h
        zeros = -moved[moved == 0.0]
        ranked[lo:lo + zeros.size] = zeros
    np.negative(ranked, out=ranked)
    depth = config.window_depth
    kept = n
    if math.isfinite(depth):
        # ranked descends (NaN sorts last and compares False), so the
        # particles within the window are a prefix
        kept = int(np.count_nonzero(ranked >= ranked[0] - depth))
    return EvolutionRecord(
        pre=config,
        post=Configuration(ranked[:kept], depth),
        increments=h,
        front_displacement=float(ranked[0] - config.positions[0]),
        dropped=n - kept,
    )


class EvolutionTrace(NamedTuple):
    final: Configuration
    displacements: np.ndarray   # per-step leader displacement, length tau
    leaders: np.ndarray         # leader position after each step
    dropped: np.ndarray         # particles dropped at each step


def evolve_many(config: Configuration, model: inc.IncrementModel, tau: int,
                stream: StreamKey) -> EvolutionTrace:
    """tau-fold composition; step t draws from substream(stream, t)."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    displacements = np.zeros(tau)
    leaders = np.zeros(tau)
    dropped = np.zeros(tau, dtype=int)
    current = config
    for t in range(tau):
        record = evolve(current, model, substream(stream, t))
        displacements[t] = record.front_displacement
        leaders[t] = record.post.leader
        dropped[t] = record.dropped
        current = record.post
    return EvolutionTrace(current, displacements, leaders, dropped)


def _fit_occupancy(config: Configuration) -> tuple[float, float]:
    """Least-squares exponential fit count(y) ~ A e^{lam y} over the window."""
    depth = gaps(config)[1:]
    if depth.size < 2 or depth[-1] - depth[0] < 1e-9:
        raise ValueError("cannot fit an occupancy profile on a degenerate configuration")
    counts = np.arange(2, config.size + 1, dtype=float)
    coeffs = np.polyfit(depth, np.log(counts), 1)
    lam, log_a = float(coeffs[0]), float(coeffs[1])
    if lam <= 0:
        raise ValueError("occupancy fit produced a nonincreasing profile")
    return float(np.exp(log_a)), lam


def truncation_bias(config: Configuration, model: inc.IncrementModel, tau: int,
                    cutoff: float) -> float:
    """Upper bound on intruders from below the window reaching the cutoff.

    Models the unseen region below the window depth by the exponential
    continuation of the occupancy fitted to every particle, whose density at
    depth y is A lam e^{lam y}, and integrates the tau-step tail of reaching
    `cutoff`.
    """
    a, lam = _fit_occupancy(config)
    w = config.window_depth
    if not np.isfinite(w):
        return 0.0
    leader = config.leader

    def log_integrand(y: np.ndarray) -> np.ndarray:
        return (np.log(a * lam) + lam * y
                + inc.log_tail_bound(model, tau, cutoff - (leader - y)))

    # scan for the effective upper limit, then integrate on a fine grid
    span = max(8.0 * tau * max(model.variance, 1.0), 40.0)
    for _ in range(8):
        probe = w + np.linspace(0.0, span, 400)
        lp_vals = log_integrand(probe)
        peak = float(np.max(lp_vals))
        if peak == -np.inf:
            return 0.0
        if lp_vals[-1] <= peak - 80.0:
            break
        span *= 4.0
    else:
        raise ArithmeticError("continuation integrand did not decay within the probed range")
    keep = np.nonzero(lp_vals > peak - 80.0)[0]
    y_hi = float(probe[min(keep[-1] + 1, probe.size - 1)])
    ys = np.linspace(w, y_hi, 4001)
    vals = np.exp(log_integrand(ys))
    return float(np.trapezoid(vals, ys))
