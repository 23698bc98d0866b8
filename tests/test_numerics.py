import warnings

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from edgerace import numerics

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
