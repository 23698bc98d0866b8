"""One-step evolution by i.i.d. increments, re-ranking, and window honesty.

Each step adds an independent increment to every particle, re-sorts, records
the relabeling permutation, and re-anchors the faithful window at the new
leader.  Particles falling behind the window are dropped but counted, and
`truncation_bias` bounds what a hypothetical exponential continuation below
the window could have contributed, so experiments can certify that the
truncation never touches their statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import increments as inc
from .configurations import Configuration, gaps
from .streams import StreamKey, substream


@dataclass(frozen=True)
class EvolutionRecord:
    pre: Configuration
    post: Configuration
    increments: np.ndarray    # indexed by pre-rank, drawn for dropped particles too
    permutation: np.ndarray   # post-rank -> pre-rank index, retained particles only
    front_displacement: float
    dropped: int


def evolve(config: Configuration, model: inc.IncrementModel,
           stream: StreamKey | None = None,
           increments: Sequence[float] | None = None) -> EvolutionRecord:
    """One evolution step; increments are drawn unless injected explicitly."""
    n = config.size
    if increments is None:
        if stream is None:
            raise ValueError("need a stream key when increments are not injected")
        h = inc.sample(model, n, stream)
    else:
        h = np.asarray(increments, dtype=float)
        if h.shape != (n,):
            raise ValueError("injected increments must match the particle count")
    moved = config.positions + h
    order = np.argsort(-moved)
    ranked = moved[order]
    if (ranked[1:] == ranked[:-1]).any():
        # only ties make the default sort's order differ from a stable one's;
        # equal positions keep their pre-rank order
        order = np.argsort(-moved, kind="stable")
        ranked = moved[order]
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
        permutation=order[:kept],
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
                    cutoff: float, fit: tuple[float, float] | None = None,
                    window: float | None = None) -> float:
    """Upper bound on intruders from below the window reaching the cutoff.

    Models the unseen region below depth `window` by the exponential
    continuation of the fitted occupancy, whose density at depth y is
    A lam e^{lam y}, and integrates the tau-step tail of reaching `cutoff`.
    """
    a, lam = fit if fit is not None else _fit_occupancy(config)
    w = config.window_depth if window is None else float(window)
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
