"""Deterministic quadrature, root-bracketing and log-sum-exp helpers shared across modules.

The quadrature and the root finder have no knobs beyond what their callers
set: `gauss_panels` uses GAUSS_ORDER nodes per panel, `adaptive_gauss`
doubles from GAUSS_START_PANELS panels up to GAUSS_MAX_PANELS, and
`monotone_root` widens its bracket at most BRACKET_STEPS times and refines to
ROOT_XTOL.  The refinement is Brent's method (Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4), copied statement by statement
from the loop in scipy's `Zeros/brentq.c`: it returns bit-for-bit the root
`scipy.optimize.brentq` returns on the widened bracket, without loading
`scipy.optimize`, and it starts from the end values the widening computed
instead of evaluating them again.

`logsumexp` is the package's only log-sum-exp.  For nonempty real input it
returns results bit-for-bit identical to `scipy.special.logsumexp` (scipy 1.17's
arithmetic, step by step).  It exists because scipy's per-call array-API
dispatch costs several times the arithmetic itself on the 2-6 element arrays
that the Laplace transforms reduce.

`row_blocks` cuts a (rows x row_len) array evaluation into row slices of at
most `BLOCK_CELLS` cells (1 MB of float64, so a block and its temporaries stay
in cache).  Callers that reduce each row on its own get the same bits for any
block size.

`frozen(a)` is the read-only float64 view every value type holds: it shares
a float64 caller's memory and leaves the caller's array writable.
`like(x, out)` hands a vectorised function's result back in the kind of its
argument: a float for a scalar or 0-d x, out in x's shape otherwise.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

import numpy as np

BLOCK_CELLS = 1 << 17   # cells per row block; a whole row when a row is longer
GAUSS_ORDER = 32        # Gauss-Legendre nodes per panel
GAUSS_START_PANELS = 8  # panels of adaptive_gauss's first pass
GAUSS_MAX_PANELS = 8192  # panels of adaptive_gauss's last pass
ROOT_XTOL = 1e-14       # absolute root width of monotone_root
BRACKET_STEPS = 200     # widening steps monotone_root takes before it gives up
_BRENTQ_RTOL = 8.9e-16  # relative root width of monotone_root's Brent loop
_BRENTQ_ITER = 100      # iterations of the Brent loop before it gives up
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


def frozen(a: np.ndarray | Sequence[float]) -> np.ndarray:
    """Read-only float64 view of a, sharing a float64 array's memory."""
    view = np.asarray(a, dtype=float).view()
    view.setflags(write=False)
    return view


def like(x: np.ndarray | float, out: np.ndarray) -> np.ndarray | float:
    """out for the argument x: a float for a scalar or 0-d x, else out in x's shape."""
    shape = np.shape(x)
    return out.reshape(shape) if shape else float(out.flat[0])


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
                   tol: float) -> float:
    """Panel-doubling quadrature from GAUSS_START_PANELS to GAUSS_MAX_PANELS
    panels; raises ArithmeticError if it fails to settle."""
    prev = gauss_panels(fn, lo, hi, GAUSS_START_PANELS)
    n = 2 * GAUSS_START_PANELS
    while n <= GAUSS_MAX_PANELS:
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
    to the root, at most BRACKET_STEPS times; ValueError if no sign change is
    found or fn returns NaN.  Brent's method then refines the bracket from the
    end values the widening computed, and raises ArithmeticError if it has not
    converged after _BRENTQ_ITER iterations.
    """
    def f(x: float) -> float:
        fx = float(fn(x))
        if math.isnan(fx):
            raise ValueError(f"function value at x={x:.6g} is NaN")
        return fx

    flo, fhi = f(lo), f(hi)
    step = max(hi - lo, 1e-6)
    for _ in range(BRACKET_STEPS):
        if flo == 0.0:
            return float(lo)
        if fhi == 0.0:
            return float(hi)
        if (flo < 0.0) != (fhi < 0.0):
            return _brent(f, float(lo), float(hi), flo, fhi)
        step *= 2.0
        if abs(fhi) < abs(flo):
            hi += step
            fhi = f(hi)
        else:
            lo -= step
            flo = f(lo)
    raise ValueError("no sign change found while expanding bracket")


def _brent(f: Callable[[float], float], xpre: float, xcur: float,
           fpre: float, fcur: float) -> float:
    # scipy's brentq.c loop, statement by statement and in its order of
    # operations, entered with f(xpre) and f(xcur) nonzero and of opposite
    # sign; xblk is the bracket's other end, scur the step just taken
    xtol, rtol = ROOT_XTOL, _BRENTQ_RTOL
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENTQ_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # C's division gives an infinite or NaN step, which the test
                # below rejects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise ArithmeticError(
        f"root refinement did not converge in {_BRENTQ_ITER} iterations (last x={xcur:.17g})")


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
