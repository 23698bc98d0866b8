"""Expected-count tails, front prediction, Poisson surrogate laws, and the
extraction of an atomic measure whose transform reproduces the tail.

The expected number of particles at or above x after tau steps is the sum of
tau-step tail probabilities over the configuration, taken from
`increments.tail_curve(model, tau)`, whose formula the increment model picks;
nothing here chooses or pins it.  Its unit crossing predicts the front; the
exact leader law (product over particles) is compared with the Poisson
surrogate exp(-expected count), and the expected-count tail is converted into
atoms located at the tilt of each particle's per-step speed demand, weighted
by its reach probability.

Sums over particles on a grid of levels are taken over (level, particle)
blocks of at most `numerics.BLOCK_CELLS` cells, written in place into one
reused buffer, so memory stays flat in the grid length and the configuration
size.  Every level's sum is that of its own row, so the results are the same
bits for any block size.  `expected_count_above` and `z_front` share that one
blocked sum.

`leader_laws` computes its rows from the middle of the grid outwards, one walk
up and one walk down, and each walk stops after the first block whose
outermost row has saturated both laws: exactly 0.0 below, exactly 1.0 above.
The rows beyond get those constants without being computed.  That is exact
because the tail T(y - x) does not increase with the level y, so neither does
the expected count nor minus the log of the exact law, and a row beyond a
saturated one is saturated too.  Each stop is certified by a computed row, not
by a bound, so the laws keep every bit of the full row sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import increments as inc
from .configurations import Configuration
from .increments import tail_curve
from .laplace import LaplaceMeasure
from .numerics import frozen, like, row_blocks

FRONT_XTOL = 1e-8           # bisection width at which z_front stops
LEADER_GRID_POINTS = 2001   # levels of the default leader-law grid
MERGE_TOL = 1e-9            # extracted tilts closer than this merge into one atom
UNDERFLOW_EXPONENT = 746.0  # leader laws are 0.0 where count and -log exact exceed it
NEGLIGIBLE_EXPONENT = 2.0 ** -56  # and 1.0 where both are below this one


def _tail_blocks(curve: Callable[[np.ndarray], np.ndarray], xs: np.ndarray,
                 positions: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
    """Row slices of xs with the tails curve(x - position), one block at a time.

    The differences go into one buffer reused across blocks; the curve returns
    a fresh array, which the caller may overwrite.
    """
    buf = None
    for rows in row_blocks(xs.size, positions.size):
        n = rows.stop - rows.start
        if buf is None:
            buf = np.empty((n, positions.size))
        yield rows, curve(np.subtract(xs[rows, None], positions, out=buf[:n]))


def _count_curve(config: Configuration, model: inc.IncrementModel,
                 tau: int) -> Callable[[np.ndarray], np.ndarray]:
    curve = tail_curve(model, tau)
    positions = config.positions

    def counts(xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float).ravel()
        out = np.empty(xs.size)
        for rows, p in _tail_blocks(curve, xs, positions):
            out[rows] = p.sum(axis=1)
        return out

    return counts


def expected_count_above(config: Configuration, model: inc.IncrementModel, tau: int,
                         x: np.ndarray | float) -> np.ndarray | float:
    """Expected number of particles at or above x after tau steps, at a level
    or an array of levels (the blocked sum of `z_front`)."""
    if tau < 1:
        raise ValueError("tau must be >= 1")
    return like(x, _count_curve(config, model, tau)(x))


def z_front(config: Configuration, model: inc.IncrementModel, tau: int) -> float:
    """Position where the expected count above equals one.

    A single particle keeps the expected count strictly below one, which
    surfaces as a no-bracket error; the crossing needs at least two particles.
    """
    counts = _count_curve(config, model, tau)

    def f(z: float) -> float:
        return float(counts(np.array([z]))[0]) - 1.0

    scale = max(np.sqrt(tau * model.variance), 1.0)
    hi = config.leader + tau * max(abs(model.mean), 1.0) + 10.0 * scale
    for _ in range(100):
        if f(hi) < 0:
            break
        hi += 4.0 * scale
    else:
        raise ValueError("expected count never drops below one: no front crossing to bracket")
    lo = hi
    for _ in range(200):
        lo -= 4.0 * scale
        if f(lo) > 0:
            break
    else:
        raise ValueError("expected count never reaches one: no front crossing to bracket")
    while hi - lo > FRONT_XTOL:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class LeaderLaw:
    """CDF of the leader after tau steps on a grid.

    Given float64 arrays, the instance shares their memory and holds
    read-only views of them; the caller's arrays stay writable.
    """

    grid: np.ndarray
    cdf: np.ndarray

    def __post_init__(self):
        grid, cdf = frozen(self.grid), frozen(self.cdf)
        if grid.shape != cdf.shape or grid.ndim != 1:
            raise ValueError("grid and cdf must be matching 1-d arrays")
        if np.any(np.diff(cdf) < -1e-12):
            raise ValueError("cdf must be nondecreasing")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cdf", cdf)


def _walk_rows(curve: Callable[[np.ndarray], np.ndarray], grid: np.ndarray,
               positions: np.ndarray, count: np.ndarray, log_exact: np.ndarray,
               saturated: Callable[[float, float], bool]) -> int:
    """Fill count and log_exact along grid, block by block, and stop after the
    first block whose last row is saturated; returns the number of rows filled.
    """
    for rows, p in _tail_blocks(curve, grid, positions):
        np.clip(p, 0.0, 1.0, out=p)
        count[rows] = p.sum(axis=1)
        np.negative(p, out=p)
        with np.errstate(divide="ignore"):
            np.log1p(p, out=p)
        log_exact[rows] = p.sum(axis=1)
        if saturated(count[rows.stop - 1], log_exact[rows.stop - 1]):
            return rows.stop
    return grid.size


def _saturated_low(count: float, log_exact: float) -> bool:
    return count > UNDERFLOW_EXPONENT and log_exact < -UNDERFLOW_EXPONENT


def _saturated_high(count: float, log_exact: float) -> bool:
    return count < NEGLIGIBLE_EXPONENT and -log_exact < NEGLIGIBLE_EXPONENT


def leader_laws(config: Configuration, model: inc.IncrementModel, tau: int,
                grid: np.ndarray | None = None) -> tuple[LeaderLaw, LeaderLaw]:
    """Exact and Poisson-surrogate laws of the leader after tau steps.

    The exact law multiplies per-particle survival factors; the surrogate
    exponentiates minus the expected count.  The surrogate dominates pointwise.
    The default grid spans ten tau-step standard deviations either side of
    the front prediction in LEADER_GRID_POINTS levels; a given grid must be
    a nonempty, nondecreasing 1-d array.

    Rows are computed from the middle of the grid outwards (see the module
    docstring).  A walk down stops at a row whose count exceeds
    UNDERFLOW_EXPONENT and whose log exact law lies below its negative; exp
    of anything below -745.134 (ln of 2**-1075) is 0.0, so the rows below get
    0.0 for both laws.  A walk up stops at a row whose count and minus log
    exact law are both under NEGLIGIBLE_EXPONENT; exp(-x) rounds to 1.0 for
    x < 2**-54 (numpy 2.4's AVX-512 exp for x < 0.81 * 2**-54), so the rows
    above get 1.0.  The row sums carry a rounding error of about N eps
    relative for N particles, far inside both margins: 0.87 in the exponent
    below, a factor of 3.25 above.
    """
    curve = tail_curve(model, tau)
    if grid is None:
        z = z_front(config, model, tau)
        half = 10.0 * np.sqrt(tau * model.variance)
        grid = np.linspace(z - half, z + half, LEADER_GRID_POINTS)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.all(np.diff(grid) >= 0):
        raise ValueError("grid must be a nonempty, nondecreasing 1-d array")
    log_exact = np.empty(grid.size)
    count = np.empty(grid.size)
    mid = grid.size // 2
    positions = config.positions
    hi = mid + _walk_rows(curve, grid[mid:], positions, count[mid:], log_exact[mid:],
                          _saturated_high)
    lo = mid - _walk_rows(curve, grid[:mid][::-1], positions, count[:mid][::-1],
                          log_exact[:mid][::-1], _saturated_low)
    count[:lo], log_exact[:lo] = np.inf, -np.inf
    count[hi:], log_exact[hi:] = 0.0, 0.0
    exact = np.exp(log_exact)
    surrogate = np.exp(-count)
    # the surrogate's low end is floored at e^{-N} for an N-particle window,
    # so only the exact law and the surrogate's upper sweep are enforced
    if exact[0] > 1e-6 or exact[-1] < 1 - 1e-6 or surrogate[-1] < 1 - 1e-6:
        raise ValueError("grid too narrow: the laws do not sweep (1e-6, 1-1e-6)")
    return LeaderLaw(grid, exact), LeaderLaw(grid, surrogate)


def law_distance(p: LeaderLaw, q: LeaderLaw) -> float:
    """Total variation of the difference of the induced grid measures.

    Realizes the bounded-test-function distance on the common grid: mass
    below the grid, per-cell masses, and mass above the grid all compared in
    absolute value.
    """
    if p.grid.shape != q.grid.shape or not np.allclose(p.grid, q.grid, rtol=0, atol=0):
        raise ValueError("laws live on different grids")
    below = abs(p.cdf[0] - q.cdf[0])
    above = abs((1.0 - p.cdf[-1]) - (1.0 - q.cdf[-1]))
    cells = float(np.abs(np.diff(p.cdf) - np.diff(q.cdf)).sum())
    return below + cells + above


class Extraction(NamedTuple):
    measure: LaplaceMeasure
    z: float              # front prediction used for the weights
    total_weight: float   # mass before merging, approximately one
    n_dropped: int        # particles removed: unattainable or beyond the depth cut


def extract_laplace(config: Configuration, model: inc.IncrementModel,
                    tau: int) -> Extraction:
    """Atomic measure whose transform mimics the normalized expected-count tail.

    Each retained particle contributes an atom at the tilt matching its
    per-step speed demand (z - x_n)/tau, weighted by its tau-step reach
    probability.  Particles whose demand is not attainable (at or above
    `model.q_max`, as deep particles on a bounded support) are dropped, and so
    are particles deeper than cutoff*tau below the leader, the cutoff keeping
    the attainable tilt an order of magnitude above the mass center of a pilot
    extraction over every attainable particle.  Atoms whose tilts lie within
    MERGE_TOL of each other merge.  A leader whose own demand lies outside
    (model.mean, model.q_max), as one far ahead of the rest, raises ValueError.
    """
    z = z_front(config, model, tau)
    # demands ascend with depth, so the attainable particles are a prefix
    qs = (z - config.positions) / tau
    if not model.mean < qs[0] < model.q_max:
        raise ValueError(f"tilt out of range for the leader: its per-step demand "
                         f"(z - x1)/tau = {qs[0]:.6g} at tau {tau} is not inside "
                         f"(mean {model.mean:.6g}, q_max {model.q_max:.6g})")
    attainable = int(np.count_nonzero(qs < model.q_max))
    eta = inc.legendre(model, qs[:attainable]).eta
    w = tail_curve(model, tau)(z - config.positions[:attainable])
    u_mean = float(np.dot(eta, w) / w.sum())
    target_eta = min(10.0 * u_mean, model.lambda_hi)
    # depth limit in speed units: the tilt at mean + cutoff reaches the target
    cutoff = inc.cumulant(model, target_eta).mean - model.mean
    depths = config.leader - config.positions  # nonnegative, ascending
    kept = min(attainable, int(np.count_nonzero(depths <= cutoff * tau)))
    # legendre and the curve work elementwise: the prefix has a rebuild's bits
    eta, w = eta[:kept], w[:kept]
    total = float(w.sum())

    # merge atoms whose tilt coincides within tolerance
    order = np.argsort(eta, kind="stable")
    eta, w = eta[order], w[order]
    groups = np.concatenate([[0], np.cumsum(np.diff(eta) > MERGE_TOL)])
    n_groups = int(groups[-1]) + 1
    u_out = np.zeros(n_groups)
    w_out = np.zeros(n_groups)
    np.add.at(w_out, groups, w)
    np.add.at(u_out, groups, eta * w)
    u_out /= w_out
    return Extraction(LaplaceMeasure(u_out, w_out), z, total, config.size - kept)
