import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

from edgerace import configurations as cf
from edgerace import dynamics as dy
from edgerace import increments as inc
from edgerace import laplace as lp
from edgerace import stats as st
from edgerace.streams import generator, substream


def test_ks_distance_calibration():
    # samples drawn from their own reference pass at alpha=0.05 in >= 93 of
    # 100 seeded trials (the asymptotic critical value is slightly liberal)
    passes = 0
    for trial in range(100):
        rng = generator((1000, trial))
        sample = rng.normal(size=10_000)
        res = st.ks_distance(sample, norm.cdf)
        if res.statistic < res.critical[0.05]:
            passes += 1
    assert passes >= 93


def test_ks_distance_point_mass_vs_continuous():
    sample = np.full(50, 0.3)
    res = st.ks_distance(sample, lambda x: np.clip(x, 0.0, 1.0))
    assert res.statistic >= 0.5


def test_ks_critical_scaling():
    a = st.ks_distance(np.linspace(0.01, 0.99, 100), lambda x: np.clip(x, 0, 1))
    b = st.ks_distance(np.linspace(0.01, 0.99, 200), lambda x: np.clip(x, 0, 1))
    for alpha in (0.05, 0.01):
        assert a.critical[alpha] / b.critical[alpha] == pytest.approx(math.sqrt(2), rel=1e-9)


def test_ks_distance_requires_samples():
    with pytest.raises(ValueError):
        st.ks_distance(np.arange(5, dtype=float), lambda x: np.clip(x, 0, 1))


def test_ks_two_sample_same_law():
    rng = generator((1001,))
    a = rng.exponential(size=5000)
    b = rng.exponential(size=5000)
    res = st.ks_two_sample(a, b)
    assert res.statistic < res.critical[0.01]


def test_ks_two_sample_detects_shift():
    rng = generator((1002,))
    a = rng.normal(size=4000)
    b = rng.normal(size=4000) + 0.2
    res = st.ks_two_sample(a, b)
    assert not res.statistic < res.critical[0.01]


def test_ks_distance_rem_gap_ranks():
    # the k-th gap of REM(1) is exponential with rate k
    gaps = np.stack([-np.diff(cf.sample_rem(1.0, 0.0, 8, (1100, r)).positions)
                     for r in range(8000)])
    for k in (1, 2):
        res = st.ks_distance(gaps[:, k - 1], lambda u, k=k: 1.0 - np.exp(-k * u))
        assert res.statistic < res.critical[0.01]


# strictly increasing maps, exact on the integer-valued samples drawn below
MONOTONE_MAPS = (lambda x: x ** 3 + x, lambda x: 4.0 * x - 7.0)
SAMPLES = arrays(np.float64, hst.integers(10, 60),
                 elements=hst.integers(-1000, 1000).map(float))


def _exp_cdf(scale):
    return lambda x: -np.expm1(-np.maximum(np.asarray(x) + 1000.0, 0.0) / scale)


@settings(max_examples=60, deadline=None)
@given(SAMPLES, hst.floats(1.0, 3000.0), hst.sampled_from(MONOTONE_MAPS))
def test_ks_distance_in_unit_interval_and_invariant_under_monotone_maps(sample, scale, g):
    reference = _exp_cdf(scale)
    res = st.ks_distance(sample, reference)
    assert 0.0 <= res.statistic <= 1.0
    # the same law seen through g: sample g(x), reference F(g^{-1}(y)); the
    # table inverts g exactly at its knots, which cover every drawn value
    table = np.arange(-1000.0, 1001.0)
    mapped = st.ks_distance(g(sample), lambda y: reference(np.interp(y, g(table), table)))
    assert mapped.statistic == res.statistic
    assert mapped.critical == res.critical


@settings(max_examples=60, deadline=None)
@given(SAMPLES, SAMPLES, hst.sampled_from(MONOTONE_MAPS))
def test_ks_two_sample_symmetric_and_invariant_under_monotone_maps(a, b, g):
    res = st.ks_two_sample(a, b)
    assert 0.0 <= res.statistic <= 1.0
    assert st.ks_two_sample(b, a) == res
    assert st.ks_two_sample(g(a), g(b)) == res


def mpgfl_estimate(ensemble, fx, fy):
    """Ensemble mean of `mpgfl_term` and its standard error."""
    vals = np.array([st.mpgfl_term(config, fx, fy) for config in ensemble])
    return vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)


def test_mpgfl_estimate_zero_function_is_one():
    ensemble = [cf.sample_rem(1.0, 0.0, 30, (1200, r)) for r in range(50)]
    fx = np.linspace(0.0, 2.0, 11)
    value, se = mpgfl_estimate(ensemble, fx, np.zeros(11))
    assert value == 1.0 and se == 0.0


def test_mpgfl_estimate_indicator_recovers_gap_law():
    # a tall plateau on (0, u] counts particles within u of the leader; the
    # leader's own term f(0)=c factors out as e^{-c}
    s, u, c, reps = 1.0, 1.0, 12.0, 4000
    fx = np.array([0.0, 1e-9, u, u + 1e-9, u + 1.0])
    fy = np.array([c, c, c, 0.0, 0.0])
    ensemble = [cf.sample_rem(s, 0.0, 250, (1201, r)) for r in range(reps)]
    value, se = mpgfl_estimate(ensemble, fx, fy)
    target = math.exp(-c) * math.exp(-s * u)
    assert abs(value - target) < 4.0 * se


def test_mpgfl_estimate_window_check():
    shallow = cf.Configuration(np.array([0.0, -0.5]), window_depth=0.6)
    fx = np.linspace(0.0, 2.0, 5)
    fy = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        st.mpgfl_term(shallow, fx, fy)


def test_mpgfl_estimate_consistency_between_ensembles():
    fx = np.linspace(0.0, 3.0, 31)
    fy = np.exp(-((fx - 1.0) / 0.5) ** 2)
    fy[0] = 0.0
    a, a_se = mpgfl_estimate([cf.sample_rem(1.0, 0.0, 400, (1202, r)) for r in range(3000)],
                             fx, fy)
    b, b_se = mpgfl_estimate([cf.sample_rem(1.0, 0.0, 400, (1203, r)) for r in range(3000)],
                             fx, fy)
    assert abs(a - b) < 4.0 * math.hypot(a_se, b_se)


def test_mpgfl_poisson_zero_function_total_mass():
    fx = np.linspace(0.0, 1.0, 5)
    got = st.mpgfl_poisson(lp.point_mass(1.0), fx, np.zeros(5), window=30.0)
    assert got.value == pytest.approx(1.0, abs=1e-6)
    assert got.boundary_mass == pytest.approx(0.0, abs=1e-6)


def test_mpgfl_poisson_indicator_matches_gap_functional():
    s, u = 1.0, 0.8
    fx = np.array([0.0, 1e-9, u, u + 1e-9, u + 1.0])
    fy = np.array([0.0, 25.0, 25.0, 0.0, 0.0])
    got = st.mpgfl_poisson(lp.point_mass(s), fx, fy, window=30.0)
    assert got.value == pytest.approx(math.exp(-s * u), abs=2e-4)


def test_mpgfl_poisson_translation_invariance():
    rho = lp.measure([(0.8, 0.5), (2.0, 0.5)])
    fx = np.linspace(0.0, 3.0, 61)
    fy = np.exp(-((fx - 1.2) / 0.4) ** 2)
    fy[0] = 0.0
    a = st.mpgfl_poisson(rho, fx, fy, window=40.0)
    b = st.mpgfl_poisson(lp.shift(rho, 3.7), fx, fy, window=40.0)
    assert a.value == pytest.approx(b.value, abs=1e-9)


def test_mpgfl_poisson_agrees_with_ensemble_estimate():
    # cross-check the Poisson functional against the empirical estimator on a
    # sampled ensemble; the test function vanishes at zero so the leader term
    # drops on both sides
    s = 1.0
    fx = np.linspace(0.0, 3.0, 31)
    fy = 0.8 * np.exp(-((fx - 1.0) / 0.6) ** 2)
    fy[0] = fy[-1] = 0.0
    ensemble = [cf.sample_rem(s, 0.0, 400, (1204, r)) for r in range(4000)]
    value, se = mpgfl_estimate(ensemble, fx, fy)
    exact = st.mpgfl_poisson(lp.point_mass(s), fx, fy, window=30.0)
    assert abs(value - exact.value) < 4.0 * se + 1e-5


def test_quasi_stationarity_functional_battery():
    # the gap-law fingerprint is preserved by one evolution step
    model = inc.gaussian(0.0, 1.0)
    fx = np.linspace(0.0, 3.0, 31)
    battery = [
        0.7 * np.exp(-((fx - 0.8) / 0.5) ** 2),
        np.maximum(0.0, 1.0 - np.abs(fx - 1.5)),
    ]
    for fy in battery:
        fy[0] = fy[-1] = 0.0
    reps = 2500
    pre_configs = []
    post_configs = []
    for r in range(reps):
        config = cf.sample_rem(1.0, 0.0, 1500, (1205, r, 0))
        record = dy.evolve(config, model, substream((1205, r), 1))
        pre_configs.append(config)
        post_configs.append(record.post)
    for fy in battery:
        pre, pre_se = mpgfl_estimate(pre_configs, fx, fy)
        post, post_se = mpgfl_estimate(post_configs, fx, fy)
        assert abs(pre - post) < 4.0 * math.hypot(pre_se, post_se)
