import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from edgerace import configurations as cf
from edgerace import increments as inc
from edgerace import laplace as lp
from edgerace import numerics
from edgerace import poissonization as pz

FINITE = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False, width=64)
SHAPES = st.one_of(st.tuples(st.integers(1, 8)),
                   st.tuples(st.integers(1, 6), st.integers(1, 8)))


def assert_bitwise(ours, reference):
    ours, reference = np.asarray(ours), np.asarray(reference)
    assert ours.shape == reference.shape
    assert ours.dtype == reference.dtype
    assert ours.tobytes() == reference.tobytes()


def check_axes(a):
    for axis in (None,) if a.ndim == 1 else (None, 1):
        ours = numerics.logsumexp(a, axis=axis)
        assert type(ours) is type(scipy.special.logsumexp(a, axis=axis))
        assert_bitwise(ours, scipy.special.logsumexp(a, axis=axis))


@settings(max_examples=300, deadline=None)
@given(SHAPES.flatmap(lambda shape: arrays(np.float64, shape, elements=FINITE)))
def test_matches_scipy_on_finite_arrays(a):
    check_axes(a)


@settings(max_examples=300, deadline=None)
@given(SHAPES.flatmap(lambda shape: st.tuples(
    arrays(np.float64, shape, elements=FINITE),
    arrays(np.bool_, shape))))
def test_matches_scipy_with_tied_maxima(pair):
    a, tie = pair
    a = np.where(tie, a.max(axis=-1, keepdims=True), a)
    check_axes(a)


@settings(max_examples=300, deadline=None)
@given(SHAPES.flatmap(lambda shape: st.tuples(
    arrays(np.float64, shape, elements=FINITE),
    arrays(np.bool_, shape))))
def test_matches_scipy_with_some_minus_inf(pair):
    # log densities that vanish at the grid edges carry -inf entries
    a, hole = pair
    hole[..., 0] = False  # never a whole row
    check_axes(np.where(hole, -np.inf, a))


@pytest.mark.parametrize("a", [
    np.array([-np.inf, -np.inf]),
    np.array([np.inf, 1.0]),
    np.array([np.nan, 1.0]),
    np.array([[1.0, -np.inf], [-np.inf, -np.inf], [np.inf, 2.0], [3.0, 3.0]]),
    np.array([1, 2, 3]),
    np.float32([1.0, 2.0, 2.0]),
])
def test_matches_scipy_on_edge_cases(a):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        check_axes(a)


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_fmt17_round_trips_every_finite_float(x):
    text = numerics.fmt17(x)
    assert float(text) == x
    assert np.signbit(float(text)) == np.signbit(x)


def test_monotone_root_widens_its_bracket():
    # the root at 40 lies far right of the starting bracket; widening doubles
    # its step toward the endpoint nearer the root
    root = numerics.monotone_root(lambda x: x - 40.0, 0.0, 1.0)
    assert abs(root - 40.0) <= numerics.ROOT_XTOL
    assert numerics.monotone_root(lambda x: x - 1.0, 1.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        numerics.monotone_root(lambda x: 1.0 + np.exp(x), 0.0, 1.0)


def brentq_on_widened_bracket(fn, lo, hi):
    """The reference: monotone_root's widening followed by scipy's brentq on
    the widened bracket.  Returns the root and whether brentq ran."""
    flo, fhi = fn(lo), fn(hi)
    step = max(hi - lo, 1e-6)
    for _ in range(numerics.BRACKET_STEPS):
        if flo == 0.0:
            return float(lo), False
        if fhi == 0.0:
            return float(hi), False
        if np.sign(flo) != np.sign(fhi):
            return float(brentq(fn, lo, hi, xtol=numerics.ROOT_XTOL,
                                rtol=numerics._BRENTQ_RTOL)), True
        step *= 2.0
        if abs(fhi) < abs(flo):
            hi += step
            fhi = fn(hi)
        else:
            lo -= step
            flo = fn(lo)
    raise ValueError("no sign change found while expanding bracket")


def check_against_brentq(fn, lo, hi):
    ours, theirs = [], []
    try:
        ref, ran_brentq = brentq_on_widened_bracket(lambda x: theirs.append(x) or fn(x), lo, hi)
    except ValueError:
        # both ends on one flat tail of a saturating function: no bracket
        with pytest.raises(ValueError, match="no sign change"):
            numerics.monotone_root(fn, lo, hi)
        return
    root = numerics.monotone_root(lambda x: ours.append(x) or fn(x), lo, hi)
    assert type(root) is float
    assert np.float64(root).tobytes() == np.float64(ref).tobytes()
    # brentq evaluates the widened bracket's ends again; Brent's loop reuses them
    assert len(ours) == len(theirs) - 2 * ran_brentq


CONVOLUTION_MODELS = {"gaussian": inc.gaussian(0.0, 1.0), "uniform": inc.uniform(0.0, 1.0)}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(CONVOLUTION_MODELS)))
def test_monotone_root_is_brentq_on_convolution_shifts(seed, model):
    solves = []
    real = lp.monotone_root

    def capture(fn, lo, hi):
        solves.append((fn, lo, hi))
        return real(fn, lo, hi)

    m = CONVOLUTION_MODELS[model]
    with mock.patch.object(lp, "monotone_root", capture):
        for rho in lp.random_corpus(3, (seed, 0), m.lambda_hi):
            lp.convolution_shift(rho, m)
    assert len(solves) == 3
    for fn, lo, hi in solves:
        check_against_brentq(fn, lo, hi)


# increasing functions, each exactly 0 at x = 0; flat (clip) and saturating
# (tanh) shapes make Brent's loop reject steps and bisect, and scales down to
# 1e-310 make its extrapolation divide by an underflowed zero.  "noisy" is
# increasing but for an evaluation noise of up to 1e-13, as a function
# computed in floating point is: near convergence the noise makes the
# extrapolated step overshoot, where the step test's exact bound decides
SHAPES_AT_ZERO = {
    "linear": lambda x, a: x,
    "cubic": lambda x, a: x ** 3 + a * x,
    "exp": lambda x, a: math.expm1(min(a * x, 700.0)),
    "tanh": lambda x, a: math.tanh(a * x),
    "clip": lambda x, a: min(max(x, -a), a),
    "sqrt": lambda x, a: math.copysign(math.sqrt(abs(x)), x) + 1e-3 * a * x,
    "noisy": lambda x, a: x + 1e-16 * a * math.sin(1e17 * x),
}


@settings(max_examples=400, deadline=None)
@example(shape="noisy", a=604.0, scale=1.0, sign=1.0, root=-4.0, start=0.0, width=1.7,
         where="around")
@example(shape="noisy", a=548.0, scale=1.0, sign=1.0, root=6.6, start=0.0, width=2.4,
         where="around")
@given(shape=st.sampled_from(sorted(SHAPES_AT_ZERO)),
       a=st.floats(1e-3, 1e3),
       scale=st.floats(-310.0, 100.0).map(lambda e: 10.0 ** e),
       sign=st.sampled_from([1.0, -1.0]),
       root=st.floats(-1e3, 1e3),
       start=st.floats(-1e3, 1e3),
       width=st.floats(1e-6, 1e2),
       where=st.sampled_from(["start", "at_lo", "at_hi", "around"]))
def test_monotone_root_is_brentq_on_monotone_functions(shape, a, scale, sign, root, start,
                                                      width, where):
    g = SHAPES_AT_ZERO[shape]

    def fn(x):
        return sign * scale * g(x - root, a)

    # "start" brackets may need widening toward a root far away
    lo = {"start": start, "at_lo": root, "at_hi": root - width,
          "around": root - 0.5 * width}[where]
    check_against_brentq(fn, lo, lo + width)


@pytest.mark.parametrize("lo, hi, nan_from, nan_to", [
    (0.0, 1.0, 0.0, 0.0),  # at a starting end
    (2.0, 3.0, 0.0, 0.0),  # at the first widening step, which moves lo to 0
    (0.0, 1.0, 0.5, 0.7),  # at Brent's first iterate, 0.6
])
def test_monotone_root_raises_value_error_on_nan(lo, hi, nan_from, nan_to):
    def fn(x):
        return math.nan if nan_from <= x <= nan_to else x - 0.6
    with pytest.raises(ValueError, match="NaN"):
        numerics.monotone_root(fn, lo, hi)


def test_monotone_root_that_does_not_converge_is_arithmetic_error():
    # a step at 1e-200 in a bracket of width 2e300: 100 iterations cannot
    # close it (brentq raises RuntimeError here), and ArithmeticError is what
    # the CLI reports as a usage error (exit 2)
    def step(x):
        return -1.0 if x < 1e-200 else 1.0
    with pytest.raises(RuntimeError):
        brentq(step, -1e300, 1e300, xtol=numerics.ROOT_XTOL, rtol=numerics._BRENTQ_RTOL)
    last, info = brentq(step, -1e300, 1e300, xtol=numerics.ROOT_XTOL,
                        rtol=numerics._BRENTQ_RTOL, full_output=True, disp=False)
    assert not info.converged
    # the same 100 iterations end at the same point
    with pytest.raises(ArithmeticError, match=f"did not converge.*x={re.escape(numerics.fmt17(last))}"):
        numerics.monotone_root(step, -1e300, 1e300)


_NORMAL_GRID = np.linspace(-8.0, 8.0, 401)
_KINDS = {"gaussian": inc.gaussian(0.0, 1.0), "uniform": inc.uniform(0.0, 1.0),
          "tabulated": inc.tabulated(_NORMAL_GRID, np.exp(-0.5 * _NORMAL_GRID ** 2)
                                     / math.sqrt(2.0 * math.pi))}
_MEASURES = {"one-atom": lp.point_mass(1.5, 2.0),
             "three-atom": lp.measure([(0.5, 0.2), (1.0, 0.5), (3.0, 0.3)])}


def _vectorised_calls():
    """(id, one-argument call, a 1-d argument of six values) for each vectorised
    function, on each kind of model or measure it takes."""
    tau, front = 4, cf.Configuration(np.array([0.5, 0.0, -1.0]), math.inf)
    span = np.linspace(0.0, 0.8, 6)
    for kind, m in _KINDS.items():
        sd = math.sqrt(m.variance)
        levels = tau * m.mean + math.sqrt(tau) * sd * np.linspace(-3.0, 3.0, 6)
        calls = {"log_mgf": (lambda a, m=m: inc.log_mgf(m, a), span * m.lambda_hi),
                 "cumulant": (lambda a, m=m: inc.cumulant(m, a), span * m.lambda_hi),
                 "legendre": (lambda a, m=m: inc.legendre(m, a),
                              m.mean + span * (m.q_max - m.mean)),
                 "step_cdf": (lambda a, m=m: inc.step_cdf(m, a),
                              m.mean + sd * np.linspace(-3.0, 3.0, 6)),
                 "tail_curve": (inc.tail_curve(m, tau), levels),
                 "log_tail_bound": (lambda a, m=m: inc.log_tail_bound(m, tau, a), levels),
                 "expected_count_above": (
                     lambda a, m=m: pz.expected_count_above(front, m, tau, a), levels)}
        for name, (call, arg) in calls.items():
            yield f"{name}-{kind}", call, arg
    for kind, rho in _MEASURES.items():
        calls = {"log_transform": lambda a, rho=rho: lp.log_transform(rho, a),
                 "transform": lambda a, rho=rho: lp.transform(rho, a),
                 "inverse": lp.TailIntensity(rho, 0.25).inverse}
        for name, call in calls.items():
            arg = np.geomspace(1e-2, 1e2, 6) if name == "inverse" else np.linspace(-1, 2, 6)
            yield f"{name}-{kind}", call, arg


def _fields(result):
    # Cumulant and Legendre give every field in the argument's kind
    return result if isinstance(result, tuple) else (result,)


@pytest.mark.parametrize("call, arg",
                         [pytest.param(c, a, id=i) for i, c, a in _vectorised_calls()])
def test_vectorised_functions_return_in_the_kind_of_their_argument(call, arg):
    # a float for a Python float or a 0-d array, bitwise the 1-d call's value;
    # the argument's shape otherwise, bitwise the 1-d call on the raveled argument
    for scalar in (float(arg[1]), np.array(arg[1])):
        for got, ref in zip(_fields(call(scalar)), _fields(call(arg[1:2]))):
            assert type(got) is float
            assert np.float64(got).tobytes() == ref.tobytes()
    for shaped in (arg, arg.reshape(2, 3), arg.reshape(3, 2).T):
        for got, ref in zip(_fields(call(shaped)), _fields(call(shaped.ravel()))):
            assert isinstance(got, np.ndarray) and got.shape == shaped.shape
            assert got.tobytes() == ref.reshape(shaped.shape).tobytes()
