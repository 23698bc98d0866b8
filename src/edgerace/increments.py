"""One-step increment distributions and their large-deviation machinery.

An :class:`IncrementModel` holds only the data its kind's formulas read.  The
gaussian is closed form throughout and carries no table.  The uniform and
tabulated kinds carry a density on a uniform quadrature grid; the uniform has
closed forms wherever they are exact and reads its support off the grid's
ends.  On top of each kind sit the cumulant generating function and its
Legendre transform (each one vectorised function that also takes scalars),
exponential tilting and i.i.d. sampling.  Every tilt lies in [0, lambda_hi]:
the program tilts only toward upper tails.  The log moment Lambda alone comes
from `log_mgf`; `cumulant` adds the tilted mean and variance, which only the
tabulated and uniform kinds need quadrature for.

This is the only module that knows how a tail probability is computed, and
the model's kind picks every formula: the closed-form normal tail for the
gaussian, otherwise Bahadur-Rao sharp-tail terms built from the tilt, rate
and curvature that `legendre` returns.  The queries are the one-step cdf
(`step_cdf`), strict single-point tau-step tails (`sum_tail`, and
`tail_ratio`, which divides formula tails through their logs, or samples by
importance when given a stream), full-line curves (`tail_curve`, whose
gaussian formula `sum_tail` evaluates) and the Chernoff bound on the
log-tail (`log_tail_bound`).  Those that need
`scipy.special` import it when they run, not at package import.

Every operation is pure; sampling takes an explicit stream key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .numerics import frozen, like, logsumexp, row_blocks
from .streams import StreamKey, generator, substream

DENSITY_TOL = 1e-8        # density must integrate to 1 within this
GRID_CLIP_MASS = 1e-10    # tilted mass tolerated in the outermost grid cells
LEGENDRE_RESIDUAL = 1e-10 # tolerance on the tilted-mean equation
_MEAN_EPS = 1e-12         # slack for treating a target mean as the untilted one
_COMPACT_EXPONENT_CAP = 80.0  # cap on |lambda| * support width for edge-supported tables
RATIO_WINDOW_EXPONENT = 0.4  # tail_ratio accepts shifts |x| <= tau^this


class Cumulant(NamedTuple):
    value: float | np.ndarray     # log exponential moment
    mean: float | np.ndarray      # mean of the tilted law
    variance: float | np.ndarray  # variance of the tilted law


class Legendre(NamedTuple):
    eta: float | np.ndarray       # tilt solving the mean condition
    rate: float | np.ndarray      # convex conjugate eta*q - Lambda(eta)
    curvature: float | np.ndarray  # variance of the eta-tilted law


class TailProbability(NamedTuple):
    value: float
    se: float | None  # None for a formula, the standard error for an estimate


class TailRatio(NamedTuple):
    ratio: float
    prediction: float


@dataclass(frozen=True)
class IncrementModel:
    """Increment law: its kind's data and a declared safe tilt range [0, lambda_hi].

    The gaussian's formulas read only its mean and variance, so it carries no
    table.  The uniform and tabulated kinds carry a density on a grid, which
    is checked on construction; the uniform's support is [grid[0], grid[-1]].
    Given float64 arrays, the instance shares their memory and holds
    read-only views of them; the caller's arrays stay writable.
    """

    kind: str                    # "gaussian" | "uniform" | "tabulated"
    grid: np.ndarray | None      # uniform, ascending; None for the gaussian
    density: np.ndarray | None   # nonnegative, integrates to 1; None for the gaussian
    lambda_hi: float             # largest safe tilt for exponential moments
    mean: float
    variance: float

    def __post_init__(self):
        if self.grid is None and self.density is None:
            return
        g, d = _table(self.grid, self.density)
        h = np.diff(g)
        if not np.all(h > 0) or not np.allclose(h, h[0], rtol=1e-6, atol=0):
            raise ValueError("grid must be uniform and strictly increasing")
        # written so that NaN fails both checks
        if not np.all(d >= 0):
            raise ValueError("density must be nonnegative and not NaN")
        total = _integrate(g, d)
        if not abs(total - 1.0) <= DENSITY_TOL:
            raise ValueError(f"density integrates to {total!r}, not 1 within {DENSITY_TOL}")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", d)

    @property
    def sup_support(self) -> float:
        if self.kind == "gaussian":
            return np.inf
        return float(self.grid[-1])

    @cached_property
    def q_max(self) -> float:
        """Tilted mean at lambda_hi: no larger per-step target is attainable."""
        return cumulant(self, self.lambda_hi).mean


def _table(grid: Sequence[float], density: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    g, d = frozen(grid), frozen(density)
    if g.ndim != 1 or g.size < 5 or d.shape != g.shape:
        raise ValueError("grid and density must be matching 1-d arrays of at least 5 points")
    return g, d


def _quad_weights(grid: np.ndarray) -> np.ndarray:
    """Composite Simpson weights (trapezoid fallback for even-length grids)."""
    n = grid.size
    h = grid[1] - grid[0]
    if n % 2 == 1:
        w = np.ones(n)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return w * (h / 3.0)
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def _integrate(grid: np.ndarray, values: np.ndarray) -> float:
    return float(np.dot(_quad_weights(grid), values))


def _log_density(model: IncrementModel) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(model.density)


def _compact_cap(lo: float, hi: float) -> float:
    """Tilt cap keeping |lambda| times the extent of a support [lo, hi] within budget."""
    span = max(abs(lo), abs(hi), hi - lo)
    return _COMPACT_EXPONENT_CAP / max(span, 1e-12)


def _safe_lambda_hi(grid: np.ndarray, density: np.ndarray) -> float:
    """Largest tilt the grid supports without hidden truncation.

    Densities that vanish toward the grid edges are clipped where the tilted
    integrand's mass in the outer cells exceeds GRID_CLIP_MASS of the total.
    Edge-supported densities (uniform-like tables) have no outside mass, so
    they are capped only by an exponent budget that keeps the tilted density
    representable.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        logd = np.log(density)
    w = _quad_weights(grid)
    logw = np.log(w)
    edge = max(2, grid.size // 100)

    cap = _compact_cap(grid[0], grid[-1])

    peak = float(density.max())
    if density[0] > 1e-12 * peak or density[-1] > 1e-12 * peak:
        return cap

    def edge_share(lam: float) -> float:
        t = lam * grid + logd + logw
        total = logsumexp(t)
        outer = logsumexp(np.concatenate([t[:edge], t[-edge:]]))
        return float(np.exp(outer - total))

    if edge_share(cap) < GRID_CLIP_MASS:
        return cap
    lo_m, hi_m = 0.0, cap
    for _ in range(80):
        mid = 0.5 * (lo_m + hi_m)
        if edge_share(mid) < GRID_CLIP_MASS:
            lo_m = mid
        else:
            hi_m = mid
    return lo_m


def gaussian(mean: float, variance: float) -> IncrementModel:
    # written so that NaN fails the checks too
    if not np.isfinite(mean):
        raise ValueError(f"gaussian mean must be finite, got {mean!r}")
    if not 0.0 < variance < np.inf:
        raise ValueError(f"gaussian variance must be positive and finite, got {variance!r}")
    sd = float(np.sqrt(variance))
    # the tilted mean at lam is q_max = mean + 5.5 sd, the largest per-step
    # target that legendre, sum_tail, extract_laplace and convolution_shift accept
    lam = 5.5 * sd / variance
    return IncrementModel("gaussian", None, None, lam, float(mean), float(variance))


def uniform(lo: float, hi: float, *, grid_points: int = 2001) -> IncrementModel:
    for name, value in (("lo", lo), ("hi", hi)):
        if not np.isfinite(value):
            raise ValueError(f"uniform {name} must be finite, got {value!r}")
    if not lo < hi:
        raise ValueError(f"uniform needs lo < hi, got lo={lo!r}, hi={hi!r}")
    grid = np.linspace(lo, hi, grid_points)
    density = np.full(grid_points, 1.0 / (hi - lo))
    # linspace sets both ends exactly, so the grid carries the support
    return IncrementModel("uniform", grid, density, _compact_cap(lo, hi),
                          0.5 * (lo + hi), (hi - lo) ** 2 / 12.0)


def tabulated(grid: Sequence[float], density: Sequence[float]) -> IncrementModel:
    grid, density = _table(grid, density)
    w = _quad_weights(grid)
    mean = float(np.dot(w, grid * density))
    var = float(np.dot(w, (grid - mean) ** 2 * density))
    return IncrementModel("tabulated", grid, density, _safe_lambda_hi(grid, density), mean, var)


def _check_lambda(model: IncrementModel, lam: np.ndarray | float) -> None:
    lam = np.asarray(lam)
    bad = ~((0.0 <= lam) & (lam <= model.lambda_hi))  # NaN is bad too
    if np.any(bad):
        raise ValueError(
            f"lambda={float(lam[bad].flat[0])} outside the declared safe range "
            f"[0, lambda_hi] = [0, {model.lambda_hi:.6g}] of the {model.kind} model"
        )


def _uniform_log_mgf(lo: float, hi: float, lam: np.ndarray) -> np.ndarray:
    # log of (e^{lam hi} - e^{lam lo}) / (lam (hi - lo)), stable in both tails
    x = lam * (hi - lo) / 2.0
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(sinh x / x) expanded around 0, else its exact form
        corr = np.where(ax < 1e-4, x * x / 6.0 - x ** 4 / 180.0,
                        np.log1p(-np.exp(-2.0 * ax)) + ax - np.log(2.0 * ax))
    return lam * (lo + hi) / 2.0 + corr


def _tilted_log_mass(model: IncrementModel, lams: np.ndarray) -> np.ndarray:
    """Log of the tilted quadrature mass on the grid, one row per tilt."""
    return lams[:, None] * model.grid + _log_density(model) + np.log(_quad_weights(model.grid))


def _quad_cumulant(model: IncrementModel, lams: np.ndarray) -> tuple[np.ndarray, ...]:
    """Quadrature (log moment, tilted mean, centred tilted variance) per tilt, by row blocks."""
    log_i, mean, var = np.empty(lams.size), np.empty(lams.size), np.empty(lams.size)
    for rows in row_blocks(lams.size, model.grid.size):
        t = _tilted_log_mass(model, lams[rows])
        log_i[rows] = logsumexp(t, axis=1)
        p = np.exp(t - log_i[rows, None])  # tilted probability mass, one row per tilt
        # row sums, not matrix products, so a row never depends on the others
        mean[rows] = (p * model.grid).sum(axis=1)
        var[rows] = (p * (model.grid - mean[rows, None]) ** 2).sum(axis=1)
    return log_i, mean, var


def log_mgf(model: IncrementModel, lam: np.ndarray | float) -> float | np.ndarray:
    """Log exponential moment Lambda(lam) alone, at a scalar or array of tilts.

    Closed form for the gaussian and uniform kinds, quadrature of the tilted
    density otherwise.  lam = 0 returns exactly 0.  A scalar tilt gives a
    float, an array gives an array of its shape.
    """
    lams = np.asarray(lam, dtype=float)
    _check_lambda(model, lams)
    flat = lams.ravel()
    if model.kind == "gaussian":
        m, v = model.mean, model.variance
        value = m * flat + 0.5 * v * flat * flat
    elif model.kind == "uniform":
        value = _uniform_log_mgf(model.grid[0], model.grid[-1], flat)
    else:
        value = np.empty(flat.size)
        for rows in row_blocks(flat.size, model.grid.size):
            value[rows] = logsumexp(_tilted_log_mass(model, flat[rows]), axis=1)
    return like(lams, np.where(flat == 0.0, 0.0, value))


def cumulant(model: IncrementModel, lam: np.ndarray | float) -> Cumulant:
    """Log exponential moment with tilted mean and variance, at a scalar or array of tilts.

    The log moment is `log_mgf`.  The derivatives come from quadrature of the
    tilted density, except for the gaussian kind where they are closed form.
    lam = 0 returns exactly (0, mean, variance).  A scalar tilt gives floats,
    an array gives arrays of its shape.
    """
    lams = np.asarray(lam, dtype=float)
    flat = lams.ravel()
    value = log_mgf(model, flat)  # checks the tilts
    if model.kind == "gaussian":
        m, v = model.mean, model.variance
        mean, var = m + v * flat, np.full_like(flat, v)
    else:
        _, mean, var = _quad_cumulant(model, flat)
    zero = flat == 0.0
    parts = (value, np.where(zero, model.mean, mean), np.where(zero, model.variance, var))
    return Cumulant(*(like(lams, a) for a in parts))


def legendre(model: IncrementModel, q: np.ndarray | float) -> Legendre:
    """Tilt eta with tilted mean q, the convex conjugate at q and the tilted
    variance at eta (the curvature of the sharp tail), for a scalar or array q.

    Every q must be attainable: model.mean <= q < the tilted mean at the top
    of the safe range.  q equal to the untilted mean returns (0, 0,
    model.variance).  The gaussian tilt is closed form; other kinds
    interpolate a 512-point table of tilted means and polish with Newton steps.
    """
    q_in = np.asarray(q, dtype=float)
    qs = q_in.ravel()
    at_mean = np.abs(qs - model.mean) <= _MEAN_EPS * max(1.0, abs(model.mean))
    below = (qs < model.mean) & ~at_mean
    if np.any(below):
        raise ValueError(f"target mean {qs[below][0]} below the untilted mean {model.mean}")
    if model.kind == "gaussian":
        eta = (qs - model.mean) / model.variance
    else:
        table = np.linspace(0.0, model.lambda_hi, 512)
        means = cumulant(model, table).mean
        eta = np.interp(qs, means, table)
        for _ in range(3):  # Newton polish on the monotone mean equation
            c = cumulant(model, eta)
            eta = np.clip(eta - (c.mean - qs) / np.maximum(c.variance, 1e-300),
                          0.0, model.lambda_hi)
    above = (qs >= model.q_max) & ~at_mean
    if np.any(above):
        raise ValueError(f"target mean {qs[above][0]} not attainable within the safe "
                         f"tilt range (max {model.q_max:.6g})")
    eta = np.where(at_mean, 0.0, eta)  # cumulant at 0 is exactly (0, mean, variance)
    c = cumulant(model, eta)
    residual = np.where(at_mean, 0.0, np.abs(c.mean - qs))
    if np.any(residual > LEGENDRE_RESIDUAL):
        raise ArithmeticError(f"tilted-mean equation residual {residual.max()} "
                              f"exceeds {LEGENDRE_RESIDUAL}")
    parts = (eta, np.where(at_mean, 0.0, eta * qs - c.value), c.variance)
    return Legendre(*(like(q_in, a) for a in parts))


def front_velocity(model: IncrementModel, s: float) -> float:
    """Per-step drift of the leading edge for exponential rate s: Lambda(s)/s."""
    if s <= 0:
        raise ValueError("s must be positive")
    return log_mgf(model, s) / s


def tilt(model: IncrementModel, s: float) -> IncrementModel:
    """Exponentially tilted model with density e^{s h} g(h) / e^{Lambda(s)}; a table
    is divided by its tilted quadrature mass, the integral `IncrementModel` checks."""
    s = float(s)
    _check_lambda(model, s)
    if s == 0.0:
        return model
    if model.kind == "gaussian":
        return gaussian(model.mean + model.variance * s, model.variance)
    log_norm = logsumexp(_tilted_log_mass(model, np.array([s])), axis=1)[0]
    density = np.exp(s * model.grid + _log_density(model) - log_norm)
    return tabulated(model.grid, density)


def _cell_masses(model: IncrementModel) -> np.ndarray:
    """Trapezoid mass of each grid cell."""
    return (model.density[1:] + model.density[:-1]) * 0.5 * np.diff(model.grid)


def sample(model: IncrementModel, n: int, stream: StreamKey) -> np.ndarray:
    """n i.i.d. draws, deterministic given the stream key."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = generator(stream)
    if n == 0:
        return np.empty(0)
    if model.kind == "gaussian":
        return rng.normal(model.mean, np.sqrt(model.variance), size=n)
    if model.kind == "uniform":
        return rng.uniform(model.grid[0], model.grid[-1], size=n)
    cdf = np.concatenate([[0.0], np.cumsum(_cell_masses(model))])
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, model.grid)


def step_cdf(model: IncrementModel, t: np.ndarray | float) -> np.ndarray | float:
    """One-step cdf at t: the normal cdf for a gaussian, else one minus P(h >= t)."""
    t = np.asarray(t, dtype=float)
    if model.kind == "gaussian":
        from scipy.special import ndtr  # here, so importing the package skips scipy
        out = ndtr((t - model.mean) / np.sqrt(model.variance))
    elif model.kind == "uniform":
        lo, hi = model.grid[0], model.grid[-1]
        out = 1.0 - np.clip((hi - t) / (hi - lo), 0.0, 1.0)
    else:
        seg = _cell_masses(model)
        right = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        out = 1.0 - np.minimum(np.interp(t, model.grid, right, left=right[0], right=0.0), 1.0)
    return like(t, out)


def _mc_importance(model: IncrementModel, tau: int, y: float, eta: float, n: int,
                   stream: StreamKey) -> tuple[float, float]:
    """Unbiased importance-sampling estimate under the eta-tilted walk.

    The estimator is the tilted-measure mean of e^{-eta S + tau Lambda(eta)}
    on {S >= y}.  For gaussian models S is drawn from its exact tau-step law
    (sum of tilted normals), which leaves the estimator's law unchanged;
    other kinds accumulate per-step draws in batches.
    """
    tilted = tilt(model, eta)
    lam_val = log_mgf(model, eta)
    if model.kind == "gaussian":
        rng = generator(stream)
        s_sum = rng.normal(tau * tilted.mean, np.sqrt(tau * tilted.variance), size=n)
    else:
        s_sum = np.zeros(n)
        block = max(1, int(2e7) // tau)
        done = 0
        idx = 0
        while done < n:
            take = min(block, n - done)
            draws = sample(tilted, take * tau, substream(stream, idx))
            s_sum[done:done + take] = draws.reshape(take, tau).sum(axis=1)
            done += take
            idx += 1
    weights = np.where(s_sum >= y, np.exp(-eta * s_sum + tau * lam_val), 0.0)
    estimate = float(weights.mean())
    se = float(weights.std(ddof=1) / np.sqrt(n))
    return estimate, se


def sum_tail(model: IncrementModel, tau: int, y: float, *, mc_samples: int | None = None,
             mc_stream: StreamKey | None = None) -> TailProbability:
    """Strict single-point P(S_tau >= y).

    Without a stream the model picks the formula: the gaussian `tail_curve`
    at y for the gaussian, the Bahadur-Rao sharp tail otherwise.  With
    `mc_stream` it is an importance-sampling estimate from `mc_samples` (at
    least 2, for its standard error) draws.  Rejects per-step targets y/tau
    outside (mean, q_max) either way.
    """
    tau, y, (eta, rate, curv) = _tail_target(model, tau, y)
    if mc_stream is not None:
        if mc_samples is None or mc_samples < 2:
            raise ValueError(f"importance sampling needs mc_samples >= 2, got {mc_samples!r}")
        return TailProbability(*_mc_importance(model, tau, y, eta, int(mc_samples), mc_stream))
    if model.kind == "gaussian":
        return TailProbability(float(tail_curve(model, tau)(y)), None)
    return TailProbability(float(np.exp(_log_sharp_tail(tau, eta, rate, curv))), None)


def _tail_target(model: IncrementModel, tau: int, y: float) -> tuple[int, float, Legendre]:
    """Checked tau and y of a single-point tail, with the Legendre terms at y / tau."""
    tau = int(tau)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    y = float(y)
    q = y / tau
    if q <= model.mean:
        raise ValueError(f"per-step target {q} at or below the mean {model.mean}; query rejected")
    # clipped at q_max itself: q below it is left as is, and legendre rejects the rest
    return tau, y, legendre(model, np.clip(q, model.mean, model.q_max))


def _log_sharp_tail(tau: int, eta: np.ndarray | float, rate: np.ndarray | float,
                    curvature: np.ndarray | float) -> np.ndarray | float:
    """log of the Bahadur-Rao tail e^{-tau rate} / (eta sqrt(2 pi tau curvature)),
    with eta and curvature floored at 1e-300."""
    return (-tau * rate
            - np.log(np.maximum(eta, 1e-300))
            - 0.5 * np.log(2 * np.pi * tau * np.maximum(curvature, 1e-300)))


def tail_ratio(model: IncrementModel, tau: int, q: float, x: float, *,
               mc_samples: int | None = None, mc_stream: StreamKey | None = None) -> TailRatio:
    """Shifted-threshold tail ratio against its exponential prediction.

    Returns P(S_tau >= q tau + x) / P(S_tau >= q tau) alongside the
    prediction e^{-eta(q) x}.  Without a stream the ratio is the exponential
    of the difference of the log tails of `sum_tail`'s formula, so tails that
    underflow to 0.0 still give one; with `mc_stream` it is the quotient of
    two `sum_tail` importance-sampling estimates, and ArithmeticError if the
    denominator is 0.0.  The shift must lie in the polynomial window
    |x| <= tau^RATIO_WINDOW_EXPONENT.
    """
    window = tau ** RATIO_WINDOW_EXPONENT
    if abs(x) > window:
        raise ValueError(f"|x|={abs(x)} outside the polynomial window "
                         f"tau^{RATIO_WINDOW_EXPONENT}={window:.4g}")
    eta = legendre(model, q).eta
    prediction = float(np.exp(-eta * x))

    def tail(y: float, part: int) -> float:
        if mc_stream is not None:
            return sum_tail(model, tau, y, mc_samples=mc_samples,
                            mc_stream=substream(mc_stream, part)).value
        # the log of sum_tail's formula, finite where the tail underflows
        _, y, terms = _tail_target(model, tau, y)
        if model.kind == "gaussian":
            return log_tail_bound(model, tau, y)  # the exact normal log tail
        return float(_log_sharp_tail(tau, *terms))

    denom = tail(q * tau, 0)
    if x == 0.0:
        return TailRatio(1.0, 1.0)
    if mc_stream is None:
        return TailRatio(float(np.exp(tail(q * tau + x, 1) - denom)), prediction)
    if denom == 0.0:
        raise ArithmeticError(f"importance-sampling tail at tau {tau}, y {q * tau} underflows to 0")
    return TailRatio(tail(q * tau + x, 1) / denom, prediction)


def tail_curve(model: IncrementModel, tau: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized y -> P(S_tau >= y) over the whole line; the model picks the formula.

    Gaussian models get the exact normal tail.  Every other kind gets, above
    the mean (q = y / tau > mean), the sharp-tail approximation blended with
    the central-limit tail (log-linear in the standardized exceedance) between
    two and four tilted standard deviations, and 0.0 at or beyond the
    supported maximum; at or below the mean it is the plain central-limit
    tail ndtr(-x), with no sharp-tail term.  The blend serves full-line
    surrogate laws; strict single-point queries, which reject targets outside
    the attainable range instead of clipping them, are `sum_tail` in this
    module.
    """
    from scipy.special import log_ndtr, ndtr  # here, once per curve built, not per call
    if model.kind == "gaussian":
        m = model.mean
        scale = np.sqrt(tau * model.variance)

        def curve_exact(y: np.ndarray) -> np.ndarray:
            # upper normal tail via ndtr of the negated argument (fast path)
            return like(y, ndtr((tau * m - np.asarray(y, dtype=float)) / scale))

        return curve_exact

    sd = np.sqrt(tau * model.variance)

    def curve(y: np.ndarray) -> np.ndarray:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        q = ys / tau
        x = (ys - tau * model.mean) / sd
        out = ndtr(-x)
        upper = q > model.mean
        if np.any(upper):
            eta, rate, curv = legendre(model, np.clip(q[upper], model.mean, model.q_max - 1e-9))
            psi = eta * np.sqrt(tau * curv)  # eta times the tilted sd of S_tau
            with np.errstate(divide="ignore", over="ignore"):
                log_sharp = _log_sharp_tail(tau, eta, rate, curv)
                log_central = log_ndtr(-x[upper])
            weight = np.clip((psi - 2.0) / 2.0, 0.0, 1.0)
            vals = np.exp((1.0 - weight) * log_central + weight * log_sharp)
            vals[q[upper] >= model.sup_support] = 0.0
            out[upper] = np.minimum(vals, 1.0)
        return like(y, out)

    return curve


def log_tail_bound(model: IncrementModel, tau: int, t: np.ndarray) -> np.ndarray | float:
    """Upper bound on log P(S_tau >= t) over an array of thresholds, valid for every one.

    Gaussian models use the exact tail.  Otherwise the bound is 0 below the
    mean, exactly -inf beyond the supported maximum, and the optimized
    Chernoff exponent in between (clipped at the safe tilt range).
    """
    from scipy.special import log_ndtr  # here, so importing the package skips scipy
    t = np.asarray(t, dtype=float)
    if model.kind == "gaussian":
        return like(t, log_ndtr(-((t - tau * model.mean) / np.sqrt(tau * model.variance))))
    out = np.zeros_like(t)
    sup = tau * model.sup_support
    out[t >= sup] = -np.inf
    q = t / tau
    mid = (q > model.mean) & (t < sup)
    if np.any(mid):
        qs = np.clip(q[mid], model.mean, model.q_max - 1e-12)
        chernoff = -tau * legendre(model, qs).rate
        # past the clip point, keep the boundary-tilt Chernoff line
        beyond = q[mid] > qs
        if np.any(beyond):
            lam_hi = log_mgf(model, model.lambda_hi)
            chernoff[beyond] = -tau * (model.lambda_hi * q[mid][beyond] - lam_hi)
        out[mid] = chernoff
    return like(t, out)


def model_from_dict(spec: dict) -> IncrementModel:
    """Build a model from a mapping: its kind picks the constructor, its other keys
    are the constructor's keyword arguments, passed unchecked (parse_spec checks them)."""
    builders = {"gaussian": gaussian, "uniform": uniform, "tabulated": tabulated}
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in builders:
        raise ValueError(f"unknown model kind {kind!r}")
    return builders[kind](**{k: v for k, v in spec.items() if k != "kind"})
