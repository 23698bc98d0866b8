"""Empirical estimators and distances for gap laws and point-process checks.

The KS distances take plain arrays of samples.  `mpgfl_term` evaluates the
gap generating functional's integrand on one configuration, whose ensemble
mean estimates the functional, and `mpgfl_poisson` computes it exactly for the
Poisson process of a Laplace measure, on a grid of MPGFL_CELLS cells.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

import numpy as np

from .configurations import Configuration, gaps
from .laplace import LaplaceMeasure, normalize, transform

KS_COEFF = {0.05: 1.358, 0.01: 1.628}
KS_MIN_SAMPLES = 10
MPGFL_CELLS = 2 ** 16  # grid cells of mpgfl_poisson's leader integral


class KsResult(NamedTuple):
    statistic: float
    critical: dict[float, float]


def _critical(n_eff: float) -> dict[float, float]:
    return {alpha: c / np.sqrt(n_eff) for alpha, c in KS_COEFF.items()}


def ks_distance(sample: Sequence[float],
                reference: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """One-sample KS statistic against a reference cdf, with asymptotic criticals."""
    values = np.sort(np.asarray(sample, dtype=float))
    n = values.size
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples")
    ref = np.asarray(reference(values), dtype=float)
    if np.any(~np.isfinite(ref)) or np.any(ref < -1e-12) or np.any(ref > 1 + 1e-12):
        raise ValueError("reference cdf must map the sample into [0, 1]")
    if np.any(np.diff(ref) < -1e-12):
        raise ValueError("reference cdf is not nondecreasing on the sample (degenerate)")
    hi = np.arange(1, n + 1) / n - ref
    lo = ref - np.arange(0, n) / n
    stat = float(max(hi.max(), lo.max()))
    return KsResult(stat, _critical(n))


def ks_two_sample(a: Sequence[float], b: Sequence[float]) -> KsResult:
    """Two-sample KS statistic; criticals use the pooled effective size nm/(n+m)."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size < KS_MIN_SAMPLES or b.size < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples on each side")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    stat = float(np.abs(fa - fb).max())
    n_eff = a.size * b.size / (a.size + b.size)
    return KsResult(stat, _critical(n_eff))


def _interp_table(x: np.ndarray, fx: np.ndarray, fy: np.ndarray) -> np.ndarray:
    return np.interp(x, fx, fy, left=0.0, right=0.0)


def mpgfl_term(config: Configuration, fx: Sequence[float], fy: Sequence[float]) -> float:
    """exp(-sum_n f(x1 - x_n)) of one configuration, for a tabulated gap weight f.

    The n = 1 term f(0) is included.  f must be nonnegative, and the
    configuration faithful at least as deep as the support of f.
    """
    fx = np.asarray(fx, dtype=float)
    fy = np.asarray(fy, dtype=float)
    if np.any(fy < 0):
        raise ValueError("the test function must be nonnegative")
    support_end = float(fx[fy > 0].max()) if np.any(fy > 0) else 0.0
    if config.window_depth < support_end:
        raise ValueError(
            f"configuration window depth {config.window_depth} is shallower "
            f"than the test-function support {support_end}")
    return float(np.exp(-_interp_table(gaps(config), fx, fy).sum()))


class PoissonFunctional(NamedTuple):
    value: float
    boundary_mass: float  # leader-location mass falling outside the window


def mpgfl_poisson(rho: LaplaceMeasure, fx: Sequence[float], fy: Sequence[float],
                  window: float) -> PoissonFunctional:
    """Gap generating functional of the Poisson process with intensity tail R_rho.

    Conditions on the leader location x and integrates
    exp{-integral of (1 - e^{-f(x-y)}) against the intensity below x}
    against the leader law d[e^{-F(x)}] over [-window, window] around the
    front of F = R_normalize(rho), which crosses level one at 0, on
    MPGFL_CELLS cells.  The leader's own f(0) term is not included here.
    """
    fx = np.asarray(fx, dtype=float)
    fy = np.asarray(fy, dtype=float)
    if np.any(fy < 0):
        raise ValueError("the test function must be nonnegative")
    support = float(fx[fy > 0].max()) if np.any(fy > 0) else 0.0
    lo = -float(window) - support
    hi = float(window)
    grid = np.linspace(lo, hi, MPGFL_CELLS + 1)
    h = grid[1] - grid[0]
    centers = 0.5 * (grid[:-1] + grid[1:])
    fvals = transform(normalize(rho), grid)
    seg_mass = fvals[:-1] - fvals[1:]              # intensity mass per cell
    leader_mass = np.exp(-fvals[1:]) - np.exp(-fvals[:-1])  # d[e^{-F}] per cell

    kernel_offsets = np.arange(0.0, support + h, h) if support > 0 else np.array([0.0])
    kernel = 1.0 - np.exp(-_interp_table(kernel_offsets, fx, fy))
    # inner(x_j) = sum over cells below x_j of kernel(x_j - y) * seg_mass
    inner = np.convolve(seg_mass, kernel)[: seg_mass.size]

    in_window = centers >= -float(window)
    value = float(np.dot(leader_mass[in_window], np.exp(-inner[in_window])))
    boundary = float(1.0 - leader_mass[in_window].sum())
    return PoissonFunctional(value, boundary)
