"""Deterministic quadrature, root-bracketing and log-sum-exp helpers shared across modules.

The quadrature and the root finder have no knobs beyond what their callers
set: `gauss_panels` uses GAUSS_ORDER nodes per panel, `adaptive_gauss` starts
from GAUSS_START_PANELS panels, and `monotone_root` widens its bracket at most
BRACKET_STEPS times and refines to ROOT_XTOL.  `monotone_root` imports scipy's
`brentq` when it runs, so importing the package does not load
`scipy.optimize`.

`logsumexp` is the package's only log-sum-exp.  For nonempty real input it
returns results bit-for-bit identical to `scipy.special.logsumexp` (scipy 1.17's
arithmetic, step by step).  It exists because scipy's per-call array-API
dispatch costs several times the arithmetic itself on the 2-6 element arrays
that the Laplace transforms reduce.

`row_blocks` cuts a (rows x row_len) array evaluation into row slices of at
most `BLOCK_CELLS` cells (1 MB of float64, so a block and its temporaries stay
in cache).  Callers that reduce each row on its own get the same bits for any
block size.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

BLOCK_CELLS = 1 << 17   # cells per row block; a whole row when a row is longer
GAUSS_ORDER = 32        # Gauss-Legendre nodes per panel
GAUSS_START_PANELS = 8  # panels of adaptive_gauss's first pass
ROOT_XTOL = 1e-14       # absolute root width of monotone_root
BRACKET_STEPS = 200     # widening steps monotone_root takes before it gives up
_BRENTQ_RTOL = 8.9e-16  # slightly above the 4*eps minimum scipy accepts
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


def row_blocks(rows: int, row_len: int) -> Iterator[slice]:
    """Consecutive row slices covering range(rows), each of at most
    BLOCK_CELLS // row_len rows and at least one."""
    step = max(1, BLOCK_CELLS // max(row_len, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def gauss_panels(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                 panels: int) -> float:
    """Composite Gauss-Legendre quadrature of a vectorized integrand."""
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, panels + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    xs = (centers[:, None] + half * _GAUSS_NODES[None, :]).ravel()
    ws = np.broadcast_to(half * _GAUSS_WEIGHTS, (panels, GAUSS_ORDER)).ravel()
    vals = np.asarray(fn(xs), dtype=float)
    return float(np.dot(vals, ws))


def adaptive_gauss(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                   tol: float, max_panels: int = 8192) -> float:
    """Panel-doubling quadrature from GAUSS_START_PANELS panels; raises
    ArithmeticError if it fails to settle."""
    prev = gauss_panels(fn, lo, hi, GAUSS_START_PANELS)
    n = 2 * GAUSS_START_PANELS
    while n <= max_panels:
        cur = gauss_panels(fn, lo, hi, n)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
        n *= 2
    raise ArithmeticError(f"quadrature did not reach tolerance {tol} on [{lo}, {hi}]")


def monotone_root(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a monotone function to ROOT_XTOL, widening [lo, hi] until fn
    changes sign.

    Each widening step doubles and extends toward the endpoint already closer
    to the root, at most BRACKET_STEPS times.
    """
    from scipy.optimize import brentq  # here, so importing the package skips scipy.optimize

    flo, fhi = fn(lo), fn(hi)
    step = max(hi - lo, 1e-6)
    for _ in range(BRACKET_STEPS):
        if flo == 0.0:
            return float(lo)
        if fhi == 0.0:
            return float(hi)
        if np.sign(flo) != np.sign(fhi):
            return float(brentq(fn, lo, hi, xtol=ROOT_XTOL, rtol=_BRENTQ_RTOL))
        step *= 2.0
        if abs(fhi) < abs(flo):
            hi += step
            fhi = fn(hi)
        else:
            lo -= step
            flo = fn(lo)
    raise ValueError("no sign change found while expanding bracket")


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(a))) along axis (all axes when None), without overflow.

    Follows scipy.special.logsumexp step by step: the maximal entries are
    counted (m) and left out of the shifted sum s, and the result is
    log1p(s / m) + log(m) + max.  Where the maximum is not finite the direct
    log(sum(exp(a))) is returned instead, as scipy does.
    """
    a = np.asarray(a)
    if a.dtype.kind != "f":
        a = a.astype(float)
    a = np.atleast_1d(a)
    axes = tuple(range(a.ndim)) if axis is None else axis
    amax = a.max(axis=axes, keepdims=True)
    finite = np.isfinite(amax)
    if finite.all():
        out = _shifted_log_sum(a, amax, axes)
    else:
        with np.errstate(all="ignore"):
            direct = np.log(np.exp(a).sum(axis=axes, keepdims=True))
            out = np.where(finite, _shifted_log_sum(a, amax, axes), direct)
    out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


def _shifted_log_sum(a: np.ndarray, amax: np.ndarray, axes) -> np.ndarray:
    # the maximum is finite, so m >= 1 and scipy's "s / m unless s == 0" is
    # plain s / m; zeroing the maximal exponentials matches scipy setting those
    # entries to -inf before the exponential
    top = a == amax
    m = top.sum(axis=axes, keepdims=True, dtype=a.dtype)
    e = np.exp(a - amax)
    e[top] = 0.0
    return np.log1p(e.sum(axis=axes, keepdims=True) / m) + np.log(m) + amax


def fmt17(value: float) -> str:
    """Decimal text that round-trips a float64 (17 significant digits)."""
    return format(float(value), ".17g")
