"""Finite atomic measures on [0, inf), their transforms, and tail intensities.

The transform R(x) = sum_i w_i e^{-x u_i} of an atomic measure is a strictly
decreasing convex intensity tail.  Shifting a configuration corresponds to the
reweighting w_i -> w_i e^{-alpha u_i}; normalization is always performed as
such a shift (never a mass rescale), so that total mass one and the value-one
convention at the origin coincide.

Convolving the intensity with an increment density multiplies atom weights by
e^{S(u)} with S(u) = Lambda(u) - z u, the normalizing z re-solved each time.
This is the engine behind the steepness order and the contraction checks.

`gap_functional`, `expected_gap` and `steeper` take a measure: a shift of
the configuration, the reweighting above, cannot change them.  The level
crossings of R have one solver, `TailIntensity.inverse`, which also finds the
normalizing shift: a bracket read off the atoms, refined by safeguarded Newton
on log R in row blocks of at most `numerics.BLOCK_CELLS` cells, so its memory
stays flat in the number of levels and atoms.  Callers that need only a
bracket, such as the quadrature range of `gap_functional`, take it as is.  A
front placed at z, as in the poissonize round trip, adds z to the crossings.

`expected_gap` imports scipy's `gammaln` when it runs, so importing the
package does not load `scipy.special`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import increments as inc
from .numerics import adaptive_gauss, frozen, like, logsumexp, monotone_root, row_blocks
from .streams import StreamKey, generator

NORMALIZE_TOL = 1e-12
UNIT_MASS_TOL = 1e-9    # mass error that convolution_shift accepts as normalized
QUAD_TOL = 1e-10        # absolute quadrature target for the functionals
GAP_REMAINDER_TOL = 1e-9  # certified far-tail remainder of expected_gap
TAIL_BUDGET = 1e-13     # certified remainder outside the quadrature range
STEEPER_SLACK = 1e-9
_NEWTON_SEEDS = 128      # points of the log-transform sweep that seeds Newton
_NEWTON_MAX_ITER = 50
_NEWTON_XTOL = 1e-14     # relative step at which a Newton block has converged
# random_corpus draws: atom count range, atom location range, and the least
# weight an atom may carry after normalization
CORPUS_ATOMS = (2, 6)
CORPUS_U_RANGE = (0.05, 4.0)
CORPUS_MIN_WEIGHT = 1e-3


@dataclass(frozen=True)
class LaplaceMeasure:
    """Atoms (u_i, w_i) with distinct positive finite u, sorted ascending.

    An atom at u = 0 would put infinitely many particles above every level
    (its term of the transform never decays), so no measure holds one and
    the code built on measures need not test for it.  Given float64 arrays,
    the instance shares their memory and holds read-only views of them; the
    caller's arrays stay writable.
    """

    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        u, w = frozen(self.u), frozen(self.w)
        if u.ndim != 1 or u.shape != w.shape or u.size == 0:
            raise ValueError("u and w must be matching nonempty 1-d arrays")
        if not ((u > 0) & (u < np.inf)).all():  # written so that NaN fails too
            raise ValueError("atom locations must be positive and finite")
        if np.any(np.diff(u) <= 0):
            raise ValueError("atom locations must be strictly increasing")
        if np.any(w <= 0) or not np.all(np.isfinite(w)):
            raise ValueError("atom weights must be positive and finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)

    @cached_property
    def log_w(self) -> np.ndarray:
        """log of the weights, computed once per measure."""
        return frozen(np.log(self.w))

    @property
    def total_mass(self) -> float:
        return float(self.w.sum())

    @property
    def n_atoms(self) -> int:
        return int(self.u.size)


def measure(atoms: Sequence[tuple[float, float]]) -> LaplaceMeasure:
    pairs = sorted((float(u), float(w)) for u, w in atoms)
    us = np.array([p[0] for p in pairs])
    ws = np.array([p[1] for p in pairs])
    return LaplaceMeasure(us, ws)


def point_mass(u: float, w: float = 1.0) -> LaplaceMeasure:
    return LaplaceMeasure(np.array([float(u)]), np.array([float(w)]))


def log_transform(rho: LaplaceMeasure, x: np.ndarray | float) -> np.ndarray | float:
    """log R(x), a float for a scalar x and an array of x's shape otherwise."""
    xs = np.asarray(x, dtype=float)
    return like(xs, logsumexp(rho.log_w[None, :] - np.outer(xs, rho.u), axis=1))  # outer ravels


def transform(rho: LaplaceMeasure, x: np.ndarray | float) -> np.ndarray | float:
    """R(x) = sum_i w_i e^{-x u_i}, in the shape of x; evaluated through logs to
    dodge overflow."""
    return like(x, np.exp(log_transform(rho, x)))


def shift(rho: LaplaceMeasure, alpha: float) -> LaplaceMeasure:
    """Reweighting matching a spatial shift: transform(shift(rho, a), x) = transform(rho, x + a)."""
    return LaplaceMeasure(rho.u, rho.w * np.exp(-float(alpha) * rho.u))


def normalize(rho: LaplaceMeasure) -> LaplaceMeasure:
    """rho shifted to total mass one, by the level-one crossing of its transform."""
    alpha = float(TailIntensity(rho).inverse(1.0))
    if abs(transform(rho, alpha) - 1.0) > NORMALIZE_TOL:
        raise ArithmeticError("normalizing shift did not reach unit mass within 1e-12")
    return shift(rho, alpha)


class Convolution(NamedTuple):
    z: float                 # normalizing shift of the convolved measure
    measure: LaplaceMeasure  # atoms u with weights w e^{Lambda(u) - z u}, unit mass


def convolution_shift(rho: LaplaceMeasure, model: inc.IncrementModel) -> Convolution:
    """Normalizing z for the increment-convolved measure, with the measure it normalizes."""
    if abs(rho.total_mass - 1.0) > UNIT_MASS_TOL:
        raise ValueError("measure must be normalized (unit mass) before convolving")
    lam = inc.log_mgf(model, rho.u)
    logw = rho.log_w + lam

    def f(z: float) -> float:
        return float(logsumexp(logw - z * rho.u))

    z0 = float(np.max(logw / rho.u))
    z = monotone_root(f, z0 - 1.0, z0 + 1.0)
    return Convolution(z, LaplaceMeasure(rho.u, rho.w * np.exp(lam - z * rho.u)))


def convolve_g(rho: LaplaceMeasure, model: inc.IncrementModel) -> LaplaceMeasure:
    """Increment convolution followed by the normalizing shift, on atoms."""
    return convolution_shift(rho, model).measure


# ---------------------------------------------------------------------------
# tail intensities


@dataclass(frozen=True)
class TailIntensity:
    """The decreasing positive intensity tail R_rho of a measure, with its one
    level-crossing solver; `inverse` also solves the shift of `normalize`.
    A front placed at z is R_rho(x - z), whose crossings are `inverse` + z."""

    rho: LaplaceMeasure

    def inverse(self, t: np.ndarray | float) -> np.ndarray | float:
        """Level crossing R^{-1}(t) = inf{x : R(x) <= t}, in the shape of t.

        Every level is bracketed without evaluating the transform (`_bracket`)
        and the bracket refined by safeguarded Newton on log R
        (`_inverse_newton`), on the raveled levels.  For one atom the bracket
        is the crossing itself, and Newton's clip keeps it there.
        """
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if (ts <= 0).any():
            raise ValueError("levels must be positive")
        logt = np.log(ts.ravel())
        return like(t, self._inverse_newton(logt, *self._bracket(logt)))

    def _bracket(self, logt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """[lo, hi] with log R(lo) >= logt >= log R(hi), level by level, read off
        the atoms without evaluating the transform.

        Each single term bounds R below, which gives lo.  Above, R(x) is at
        most (sum w) e^{-u_min x} for x >= 0 and (sum w) e^{-u_max x} for
        x <= 0; with a = log(sum w) - logt these put a crossing-free point at
        a / u_min when a >= 0 and at a / u_max when a < 0.
        """
        rho = self.rho
        lo = np.empty_like(logt)
        for rows in row_blocks(logt.size, rho.n_atoms):
            lo[rows] = ((rho.log_w[None, :] - logt[rows, None]) / rho.u[None, :]).max(axis=1)
        a = np.log(rho.total_mass) - logt
        hi = np.maximum(lo, np.where(a >= 0, a / rho.u[0], a / rho.u[-1]))
        return lo, hi

    def _inverse_newton(self, logt: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Level crossings inside their brackets: a coarse sweep of the log
        transform seeds a Newton iteration on log R, clipped to the bracket
        and run block by block until every step in the block stalls (the log
        transform is convex and strictly decreasing, so after its first step
        the iteration approaches each crossing from below)."""
        rho = self.rho
        grid = np.linspace(float(lo.min()) - 1e-9, float(hi.max()) + 1e-9, _NEWTON_SEEDS)
        logf = np.empty(grid.size)
        for rows in row_blocks(grid.size, rho.n_atoms):
            logf[rows] = log_transform(rho, grid[rows])
        x = np.interp(-logt, -logf, grid)
        out = np.empty_like(x)
        for rows in row_blocks(x.size, rho.n_atoms):
            xi = x[rows]
            ti = logt[rows]
            for _ in range(_NEWTON_MAX_ITER):
                with np.errstate(over="ignore"):
                    terms = rho.w[None, :] * np.exp(-np.outer(xi, rho.u))
                f = terms.sum(axis=1)
                terms *= rho.u[None, :]
                df = -terms.sum(axis=1)
                new = np.clip(xi - (np.log(f) - ti) * f / df, lo[rows], hi[rows])
                stalled = np.all(np.abs(new - xi) <= _NEWTON_XTOL * (1.0 + np.abs(xi)))
                xi = new
                if stalled:
                    break
            if np.abs(np.asarray(log_transform(rho, xi)) - ti).max() > 1e-9:
                raise ArithmeticError("level-crossing refinement did not converge")
            out[rows] = xi
        return out


def steeper(g: LaplaceMeasure, f: LaplaceMeasure, levels: Sequence[float],
            slack: float = STEEPER_SLACK) -> bool:
    """True when every level interval of R_g is no longer than that of R_f.

    Checks R_g^{-1}(a) - R_g^{-1}(b) <= R_f^{-1}(a) - R_f^{-1}(b) + slack over
    all pairs a < b of the supplied level grid.
    """
    lv = np.sort(np.asarray(levels, dtype=float))
    d = np.asarray(TailIntensity(g).inverse(lv)) - np.asarray(TailIntensity(f).inverse(lv))
    # the all-pairs condition says d may not drop by more than the slack as the
    # level rises, so compare each point against the running maximum before it
    return not np.any(np.maximum.accumulate(d) - d > slack)


def gap_functional(rho: LaplaceMeasure, u: float) -> float:
    """Probability that the first gap of the Poisson process of rho exceeds u.

    Equals the integral of e^{-R(x-u)} against the intensity differential
    -dR(x), with the analytic derivative.  Any x_lo with R >= 40 and x_hi
    with R <= TAIL_BUDGET certify the remainder (e^{-40} and TAIL_BUDGET),
    and the bracket gives both without solving a crossing.
    """
    if u < 0:
        raise ValueError("gap threshold must be nonnegative")
    if u == 0.0:
        return 1.0
    if rho.n_atoms == 1:
        return float(np.exp(-rho.u[0] * u))
    lo, hi = TailIntensity(rho)._bracket(np.log([40.0, TAIL_BUDGET]))

    def integrand(x: np.ndarray) -> np.ndarray:
        dens = (rho.w * rho.u)[None, :] * np.exp(-np.outer(x, rho.u))
        return np.exp(-transform(rho, x - u)) * dens.sum(axis=1)

    return adaptive_gauss(integrand, float(lo[0]), float(hi[1]), tol=QUAD_TOL)


def expected_gap(rho: LaplaceMeasure, n: int) -> float:
    """Mean gap between ranks n and n+1 of the Poisson process of rho.

    Integrates R^n e^{-R} / n! over time; the range is chosen so the
    discarded tails contribute provably less than GAP_REMAINDER_TOL.
    """
    from scipy.special import gammaln  # here, so importing the package skips scipy
    if n < 1:
        raise ValueError("rank must be a positive integer")
    rate = float(rho.u[0])
    f_hi = n + 40.0 * np.sqrt(n + 1.0) + 40.0
    f_lo = 10.0 ** (-12.0 / n)
    f = TailIntensity(rho)
    t_lo = float(f.inverse(f_hi))
    t_hi = float(f.inverse(f_lo))
    log_nfac = float(gammaln(n + 1))

    def integrand(t: np.ndarray) -> np.ndarray:
        fv = transform(rho, t)
        return np.exp(n * np.log(fv) - fv - log_nfac)

    val = adaptive_gauss(integrand, t_lo, t_hi, tol=QUAD_TOL)
    remainder = f_lo ** n / (np.exp(log_nfac) * n * rate)
    if remainder > GAP_REMAINDER_TOL:
        raise ArithmeticError("cannot certify the far-tail remainder of the gap integral")
    return val


def random_corpus(n_measures: int, stream: StreamKey, u_max: float) -> list[LaplaceMeasure]:
    """Normalized random atomic measures with every atom carrying real mass.

    Used by the monotonicity and contraction checks.  Atoms are drawn on
    CORPUS_U_RANGE cut at u_max, so a caller that convolves the corpus passes
    its model's lambda_hi; ValueError when no atom fits.  The rejection loop
    keeps only draws whose post-normalization weights all stay above
    CORPUS_MIN_WEIGHT.
    """
    u_lo = CORPUS_U_RANGE[0]
    if not u_max > u_lo:  # written so that NaN fails too
        raise ValueError(f"no corpus atom fits below u_max={u_max!r}: atoms start at u={u_lo}")
    u_hi = min(CORPUS_U_RANGE[1], u_max)
    rng = generator(stream)
    out: list[LaplaceMeasure] = []
    attempts = 0
    while len(out) < n_measures:
        attempts += 1
        if attempts > 100 * n_measures:
            raise RuntimeError("corpus rejection loop failed to converge")
        k = int(rng.integers(CORPUS_ATOMS[0], CORPUS_ATOMS[1] + 1))
        u = np.sort(rng.uniform(u_lo, u_hi, size=k))
        if np.any(np.diff(u) < 1e-3):
            continue
        w = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=k))
        try:
            rho = normalize(LaplaceMeasure(u, w))
        except (ValueError, ArithmeticError):
            continue
        if rho.w.min() < CORPUS_MIN_WEIGHT:
            continue
        out.append(rho)
    return out
