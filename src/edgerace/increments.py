"""One-step increment distributions and their large-deviation machinery.

An :class:`IncrementModel` carries a density on a uniform quadrature grid and,
for the gaussian and uniform kinds, closed forms that are used wherever they
are exact.  On top of the density sit the cumulant generating function and its
Legendre transform (each one vectorised function that also takes scalars),
exponential tilting and i.i.d. sampling.

This is the only module that knows how the tau-step tail P(S_tau >= y) is
computed: strict single-point queries (`sum_tail`, one call with three
interchangeable backends), full-line curves (`tail_curve`, whose formula the
model's kind picks: closed form for the gaussian, a sharp-tail blend
otherwise) and the Chernoff upper bound on the log-tail (`log_tail_bound`).
The Bahadur-Rao sharp-tail terms behind all three are built in one place,
`_sharp_terms`.  The gaussian tail probability has one formula, in
`tail_curve`, which the `gaussian-exact` backend and the gaussian `step_tail`
evaluate.

Every operation is pure; sampling takes an explicit stream key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import log_ndtr, ndtr

from .numerics import logsumexp
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


class TailProbability(NamedTuple):
    value: float
    se: float | None
    backend: str


class TailRatio(NamedTuple):
    ratio: float
    prediction: float
    numerator: float
    denominator: float


@dataclass(frozen=True)
class IncrementModel:
    """Increment law with quadrature grid and declared safe tilt range."""

    kind: str                 # "gaussian" | "uniform" | "tabulated"
    grid: np.ndarray          # uniform, ascending
    density: np.ndarray      # nonnegative, integrates to 1
    lambda_lo: float          # declared safe range for exponential moments
    lambda_hi: float
    mean: float
    variance: float
    params: tuple[float, ...]  # (m, var) / (lo, hi) / ()

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        d = np.asarray(self.density, dtype=float)
        if g.ndim != 1 or g.size < 5 or d.shape != g.shape:
            raise ValueError("grid and density must be matching 1-d arrays")
        h = np.diff(g)
        if not np.all(h > 0) or not np.allclose(h, h[0], rtol=1e-6, atol=0):
            raise ValueError("grid must be uniform and strictly increasing")
        if np.any(d < 0):
            raise ValueError("density must be nonnegative")
        total = _integrate(g, d)
        if abs(total - 1.0) > DENSITY_TOL:
            raise ValueError(f"density integrates to {total!r}, not 1 within {DENSITY_TOL}")
        g.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "density", d)

    @property
    def sup_support(self) -> float:
        if self.kind == "gaussian":
            return np.inf
        return float(self.grid[-1])


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


def _safe_lambda_bounds(grid: np.ndarray, density: np.ndarray) -> tuple[float, float]:
    """Largest tilt range the grid supports without hidden truncation.

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

    span = max(abs(grid[0]), abs(grid[-1]), grid[-1] - grid[0])
    cap = _COMPACT_EXPONENT_CAP / max(span, 1e-12)

    peak = float(density.max())
    if density[0] > 1e-12 * peak or density[-1] > 1e-12 * peak:
        return -cap, cap

    def edge_share(lam: float) -> float:
        t = lam * grid + logd + logw
        total = logsumexp(t)
        outer = logsumexp(np.concatenate([t[:edge], t[-edge:]]))
        return float(np.exp(outer - total))

    def bound(sign: float) -> float:
        lam, hi = 0.0, sign * cap
        if edge_share(hi) < GRID_CLIP_MASS:
            return hi
        lo_m, hi_m = 0.0, abs(hi)
        for _ in range(80):
            mid = 0.5 * (lo_m + hi_m)
            if edge_share(sign * mid) < GRID_CLIP_MASS:
                lo_m = mid
            else:
                hi_m = mid
        return sign * lo_m

    return bound(-1.0), bound(+1.0)


def gaussian(mean: float = 0.0, variance: float = 1.0, *, grid_halfwidth: float = 12.0,
             grid_points: int = 4001) -> IncrementModel:
    # written so that NaN fails the checks too
    if not np.isfinite(mean):
        raise ValueError(f"gaussian mean must be finite, got {mean!r}")
    if not 0.0 < variance < np.inf:
        raise ValueError(f"gaussian variance must be positive and finite, got {variance!r}")
    sd = float(np.sqrt(variance))
    grid = np.linspace(mean - grid_halfwidth * sd, mean + grid_halfwidth * sd, grid_points)
    density = np.exp(-0.5 * ((grid - mean) / sd) ** 2) / (sd * np.sqrt(2 * np.pi))
    lam = (grid_halfwidth - 6.5) * sd / variance
    return IncrementModel("gaussian", grid, density, -lam, lam,
                          float(mean), float(variance), (float(mean), float(variance)))


def uniform(lo: float = 0.0, hi: float = 1.0, *, grid_points: int = 2001) -> IncrementModel:
    for name, value in (("lo", lo), ("hi", hi)):
        if not np.isfinite(value):
            raise ValueError(f"uniform {name} must be finite, got {value!r}")
    if not lo < hi:
        raise ValueError(f"uniform needs lo < hi, got lo={lo!r}, hi={hi!r}")
    grid = np.linspace(lo, hi, grid_points)
    density = np.full(grid_points, 1.0 / (hi - lo))
    span = max(abs(lo), abs(hi), hi - lo)
    cap = _COMPACT_EXPONENT_CAP / max(span, 1e-12)
    return IncrementModel("uniform", grid, density, -cap, cap,
                          0.5 * (lo + hi), (hi - lo) ** 2 / 12.0, (float(lo), float(hi)))


def tabulated(grid: Sequence[float], density: Sequence[float]) -> IncrementModel:
    grid = np.asarray(grid, dtype=float)
    density = np.asarray(density, dtype=float)
    w = _quad_weights(grid)
    mean = float(np.dot(w, grid * density))
    var = float(np.dot(w, (grid - mean) ** 2 * density))
    lam_lo, lam_hi = _safe_lambda_bounds(grid, density)
    return IncrementModel("tabulated", grid, density, lam_lo, lam_hi, mean, var, ())


def _check_lambda(model: IncrementModel, lam: np.ndarray | float) -> None:
    lam = np.asarray(lam)
    bad = ~((model.lambda_lo <= lam) & (lam <= model.lambda_hi))  # NaN is bad too
    if np.any(bad):
        raise ValueError(
            f"lambda={float(lam[bad].flat[0])} outside the declared safe range "
            f"[{model.lambda_lo:.6g}, {model.lambda_hi:.6g}] of the {model.kind} model"
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


def _quad_cumulant(model: IncrementModel, lams: np.ndarray) -> tuple[np.ndarray, ...]:
    """Quadrature (log moment, tilted mean, centred tilted variance) per tilt."""
    t = lams[:, None] * model.grid + _log_density(model) + np.log(_quad_weights(model.grid))
    log_i = logsumexp(t, axis=1)
    p = np.exp(t - log_i[:, None])  # tilted probability mass on the grid, one row per tilt
    # row sums, not matrix products, so a row never depends on the others
    mean = (p * model.grid).sum(axis=1)
    var = (p * (model.grid - mean[:, None]) ** 2).sum(axis=1)
    return log_i, mean, var


def cumulant(model: IncrementModel, lam: np.ndarray | float) -> Cumulant:
    """Log exponential moment with tilted mean and variance, at a scalar or array of tilts.

    Derivatives come from quadrature of the tilted density, except for the
    gaussian kind where everything is closed form; the uniform log moment is
    closed form too.  lam = 0 returns exactly (0, mean, variance).  A scalar
    tilt gives floats, an array gives arrays of its shape.
    """
    lams = np.asarray(lam, dtype=float)
    _check_lambda(model, lams)
    flat = lams.ravel()
    if model.kind == "gaussian":
        m, v = model.params
        value, mean, var = m * flat + 0.5 * v * flat * flat, m + v * flat, np.full_like(flat, v)
    else:
        value, mean, var = _quad_cumulant(model, flat)
        if model.kind == "uniform":
            value = _uniform_log_mgf(*model.params, flat)
    zero = flat == 0.0
    parts = (np.where(zero, 0.0, value), np.where(zero, model.mean, mean),
             np.where(zero, model.variance, var))
    if lams.ndim == 0:
        return Cumulant(*(float(a[0]) for a in parts))
    return Cumulant(*(a.reshape(lams.shape) for a in parts))


def legendre(model: IncrementModel, q: np.ndarray | float) -> Legendre:
    """Tilt eta with tilted mean q, and the convex conjugate at q, for a scalar or array q.

    Every q must be attainable: model.mean <= q < the tilted mean at the top
    of the safe range.  q equal to the untilted mean returns (0, 0).  The
    gaussian tilt is closed form; other kinds interpolate a 512-point table of
    tilted means and polish with Newton steps.
    """
    q_in = np.asarray(q, dtype=float)
    qs = q_in.ravel()
    at_mean = np.abs(qs - model.mean) <= _MEAN_EPS * max(1.0, abs(model.mean))
    below = (qs < model.mean) & ~at_mean
    if np.any(below):
        raise ValueError(f"target mean {qs[below][0]} below the untilted mean {model.mean}")
    if model.kind == "gaussian":
        m, v = model.params
        q_hi = cumulant(model, model.lambda_hi).mean
        eta = (qs - m) / v
    else:
        table = np.linspace(0.0, model.lambda_hi, 512)
        means = cumulant(model, table).mean
        q_hi = means[-1]
        eta = np.interp(qs, means, table)
        for _ in range(3):  # Newton polish on the monotone mean equation
            c = cumulant(model, eta)
            eta = np.clip(eta - (c.mean - qs) / np.maximum(c.variance, 1e-300),
                          0.0, model.lambda_hi)
    above = (qs >= q_hi) & ~at_mean
    if np.any(above):
        raise ValueError(f"target mean {qs[above][0]} not attainable within the safe "
                         f"tilt range (max {q_hi:.6g})")
    c = cumulant(model, eta)
    residual = np.where(at_mean, 0.0, np.abs(c.mean - qs))
    if np.any(residual > LEGENDRE_RESIDUAL):
        raise ArithmeticError(f"tilted-mean equation residual {residual.max()} "
                              f"exceeds {LEGENDRE_RESIDUAL}")
    eta = np.where(at_mean, 0.0, eta)
    rate = np.where(at_mean, 0.0, eta * qs - c.value)
    if q_in.ndim == 0:
        return Legendre(float(eta[0]), float(rate[0]))
    return Legendre(eta.reshape(q_in.shape), rate.reshape(q_in.shape))


def front_velocity(model: IncrementModel, s: float) -> float:
    """Per-step drift of the leading edge for exponential rate s: Lambda(s)/s."""
    if s <= 0:
        raise ValueError("s must be positive")
    return cumulant(model, s).value / s


def tilt(model: IncrementModel, s: float) -> IncrementModel:
    """Exponentially tilted model with density e^{s h} g(h) / e^{Lambda(s)}."""
    s = float(s)
    _check_lambda(model, s)
    if s == 0.0:
        return model
    if model.kind == "gaussian":
        m, v = model.params
        halfwidth = (model.grid[-1] - model.grid[0]) / (2.0 * np.sqrt(v))
        return gaussian(m + v * s, v, grid_halfwidth=halfwidth, grid_points=model.grid.size)
    log_norm = cumulant(model, s).value
    density = np.exp(s * model.grid + _log_density(model) - log_norm)
    return tabulated(model.grid, density)


def sample(model: IncrementModel, n: int, stream: StreamKey) -> np.ndarray:
    """n i.i.d. draws, deterministic given the stream key."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = generator(stream)
    if n == 0:
        return np.empty(0)
    if model.kind == "gaussian":
        m, v = model.params
        return rng.normal(m, np.sqrt(v), size=n)
    if model.kind == "uniform":
        lo, hi = model.params
        return rng.uniform(lo, hi, size=n)
    cdf = np.concatenate([[0.0], np.cumsum((model.density[1:] + model.density[:-1])
                                           * 0.5 * np.diff(model.grid))])
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, model.grid)


def step_tail(model: IncrementModel, t: np.ndarray | float) -> np.ndarray | float:
    """One-step upper tail P(h >= t), exact up to the grid representation."""
    t_arr = np.asarray(t, dtype=float)
    if model.kind == "gaussian":
        out = tail_curve(model, 1)(t_arr)
    elif model.kind == "uniform":
        lo, hi = model.params
        out = np.clip((hi - t_arr) / (hi - lo), 0.0, 1.0)
    else:
        seg = (model.density[1:] + model.density[:-1]) * 0.5 * np.diff(model.grid)
        right = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        out = np.interp(t_arr, model.grid, right, left=right[0], right=0.0)
        out = np.minimum(out, 1.0)
    return out if np.ndim(t) else float(out)


BACKENDS = ("gaussian-exact", "br-approx", "mc-importance")  # of `sum_tail`


def _sharp_terms(model: IncrementModel, tau: int, q: np.ndarray | float,
                 margin: float) -> tuple:
    """Bahadur-Rao sharp-tail terms at per-step targets q.

    q is first clipped into [mean, q_top - margin], q_top being the tilted
    mean at the top of the safe range.  Returns the clipped q, the tilt eta,
    the Legendre rate, the tilted variance (curvature) at eta, and
    psi = eta * sqrt(tau * curvature).
    """
    q_top = cumulant(model, model.lambda_hi).mean
    qs = np.clip(q, model.mean, q_top - margin)
    eta, rate = legendre(model, qs)
    curv = cumulant(model, eta).variance
    return qs, eta, rate, curv, eta * np.sqrt(tau * curv)


def _mc_importance(model: IncrementModel, tau: int, y: float, eta: float, n: int,
                   stream: StreamKey) -> tuple[float, float]:
    """Unbiased importance-sampling estimate under the eta-tilted walk.

    The estimator is the tilted-measure mean of e^{-eta S + tau Lambda(eta)}
    on {S >= y}.  For gaussian models S is drawn from its exact tau-step law
    (sum of tilted normals), which leaves the estimator's law unchanged;
    other kinds accumulate per-step draws in batches.
    """
    tilted = tilt(model, eta)
    lam_val = cumulant(model, eta).value
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


def sum_tail(model: IncrementModel, tau: int, y: float, backend: str, *,
             mc_samples: int = 10 ** 6, mc_stream: StreamKey | None = None) -> TailProbability:
    """Strict single-point P(S_tau >= y) under the chosen backend.

    Rejects per-step targets y/tau outside (mean, q_max), q_max being the
    tilted mean at the top of the safe range, for every backend.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "gaussian-exact" and model.kind != "gaussian":
        raise ValueError("gaussian-exact backend requires a gaussian model")
    tau = int(tau)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    y = float(y)
    q = y / tau
    if q <= model.mean:
        raise ValueError(f"per-step target {q} at or below the mean {model.mean}; query rejected")
    # a zero margin leaves q unclipped below q_max and lets legendre reject the rest
    _, eta, rate, curv, _ = _sharp_terms(model, tau, q, 0.0)
    if backend == "mc-importance" and mc_stream is None:
        raise ValueError("mc-importance needs a stream key")
    if backend == "gaussian-exact":
        return TailProbability(float(tail_curve(model, tau)(y)), None, backend)
    if backend == "br-approx":
        value = float(np.exp(-tau * rate) / (eta * np.sqrt(2 * np.pi * tau * curv)))
        return TailProbability(value, None, backend)
    estimate, se = _mc_importance(model, tau, y, eta, int(mc_samples), mc_stream)
    return TailProbability(estimate, se, backend)


def tail_ratio(model: IncrementModel, tau: int, q: float, x: float, backend: str, *,
               mc_samples: int = 10 ** 6, mc_stream: StreamKey | None = None) -> TailRatio:
    """Shifted-threshold tail ratio against its exponential prediction.

    Returns P(S_tau >= q tau + x) / P(S_tau >= q tau) computed with one shared
    backend, alongside the prediction e^{-eta(q) x}.  The shift must lie in
    the polynomial window |x| <= tau^RATIO_WINDOW_EXPONENT.
    """
    window = tau ** RATIO_WINDOW_EXPONENT
    if abs(x) > window:
        raise ValueError(f"|x|={abs(x)} outside the polynomial window "
                         f"tau^{RATIO_WINDOW_EXPONENT}={window:.4g}")
    eta, _ = legendre(model, q)
    prediction = float(np.exp(-eta * x))

    def tail(y: float, part: int) -> float:
        stream = None if mc_stream is None else substream(mc_stream, part)
        return sum_tail(model, tau, y, backend, mc_samples=mc_samples, mc_stream=stream).value

    denom = tail(q * tau, 0)
    if x == 0.0:
        return TailRatio(1.0, 1.0, denom, denom)
    numer = tail(q * tau + x, 1)
    return TailRatio(numer / denom, prediction, numer, denom)


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
    if model.kind == "gaussian":
        m, v = model.params
        scale = np.sqrt(tau * v)

        def curve_exact(y: np.ndarray) -> np.ndarray:
            # upper normal tail via ndtr of the negated argument (fast path)
            return ndtr((tau * m - np.asarray(y, dtype=float)) / scale)

        return curve_exact

    sd = np.sqrt(tau * model.variance)

    def curve(y: np.ndarray) -> np.ndarray:
        ys = np.atleast_1d(np.asarray(y, dtype=float))
        q = ys / tau
        x = (ys - tau * model.mean) / sd
        out = ndtr(-x)
        upper = q > model.mean
        if np.any(upper):
            _, eta, rate, curv, psi = _sharp_terms(model, tau, q[upper], 1e-9)
            with np.errstate(divide="ignore", over="ignore"):
                log_sharp = (-tau * rate
                             - np.log(np.maximum(eta, 1e-300))
                             - 0.5 * np.log(2 * np.pi * tau * np.maximum(curv, 1e-300)))
                log_central = log_ndtr(-x[upper])
            weight = np.clip((psi - 2.0) / 2.0, 0.0, 1.0)
            vals = np.exp((1.0 - weight) * log_central + weight * log_sharp)
            vals[q[upper] >= model.sup_support] = 0.0
            out[upper] = np.minimum(vals, 1.0)
        return float(out[0]) if np.ndim(y) == 0 else out

    return curve


def log_tail_bound(model: IncrementModel, tau: int, t: np.ndarray) -> np.ndarray:
    """Upper bound on log P(S_tau >= t) over an array of thresholds, valid for every one.

    Gaussian models use the exact tail.  Otherwise the bound is 0 below the
    mean, exactly -inf beyond the supported maximum, and the optimized
    Chernoff exponent in between (clipped at the safe tilt range).
    """
    t = np.asarray(t, dtype=float)
    if model.kind == "gaussian":
        m, v = model.params
        return log_ndtr(-((t - tau * m) / np.sqrt(tau * v)))
    out = np.zeros_like(t)
    sup = tau * model.sup_support
    out[t >= sup] = -np.inf
    q = t / tau
    mid = (q > model.mean) & (t < sup)
    if np.any(mid):
        qs, _, rate, _, _ = _sharp_terms(model, tau, q[mid], 1e-12)
        chernoff = -tau * rate
        # past the clip point, keep the boundary-tilt Chernoff line
        beyond = q[mid] > qs
        if np.any(beyond):
            lam_hi = cumulant(model, model.lambda_hi).value
            chernoff[beyond] = -tau * (model.lambda_hi * q[mid][beyond] - lam_hi)
        out[mid] = chernoff
    return out


def model_from_dict(spec: dict) -> IncrementModel:
    """Build a model from a configuration mapping (kind plus parameters)."""
    kind = spec.get("kind")
    opts = {}
    if kind == "gaussian":
        if "grid_halfwidth" in spec:
            opts["grid_halfwidth"] = float(spec["grid_halfwidth"])
        if "grid_points" in spec:
            opts["grid_points"] = int(spec["grid_points"])
        return gaussian(float(spec.get("mean", 0.0)), float(spec.get("variance", 1.0)), **opts)
    if kind == "uniform":
        if "grid_points" in spec:
            opts["grid_points"] = int(spec["grid_points"])
        return uniform(float(spec.get("lo", 0.0)), float(spec.get("hi", 1.0)), **opts)
    if kind == "tabulated":
        return tabulated(spec["grid"], spec["density"])
    raise ValueError(f"unknown model kind {kind!r}")
