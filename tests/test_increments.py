import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr
from scipy.stats import norm

from edgerace import increments as inc

LN_E_MINUS_1 = 0.541324854612918  # log of quad(exp, 0, 1); equals ln(e-1)


@pytest.fixture(scope="module")
def std_gaussian():
    return inc.gaussian(0.0, 1.0)


@pytest.fixture(scope="module")
def unit_uniform():
    return inc.uniform(0.0, 1.0)


@pytest.fixture(scope="module")
def table_model():
    # two-bump density tabulated on a uniform grid, normalized by quadrature
    grid = np.linspace(-8.0, 8.0, 3201)
    raw = np.exp(-0.5 * (grid + 1.0) ** 2) + 0.5 * np.exp(-0.5 * ((grid - 2.0) / 0.8) ** 2)
    w = inc._quad_weights(grid)
    return inc.tabulated(grid, raw / np.dot(w, raw))


def test_density_normalization(unit_uniform, table_model):
    for model in (unit_uniform, table_model):
        assert abs(inc._integrate(model.grid, model.density) - 1.0) < 1e-8


def test_gaussian_carries_no_table(std_gaussian):
    # every gaussian formula is closed form in its mean and variance
    for model in (std_gaussian, inc.tilt(std_gaussian, 1.0)):
        assert model.grid is None and model.density is None


@settings(max_examples=200, deadline=None)
@given(hst.floats(-1e3, 1e3), hst.floats(1e-2, 1e3), hst.integers(5, 2001))
def test_uniform_grid_ends_are_its_support(lo, span, grid_points):
    # the uniform's formulas read lo and hi off the grid's ends
    hi = lo + span
    model = inc.uniform(lo, hi, grid_points=grid_points)
    assert model.grid[0] == lo and model.grid[-1] == hi


def test_cumulant_gaussian_closed_form(std_gaussian):
    c = inc.cumulant(std_gaussian, 2.0)
    assert c.value == pytest.approx(2.0, abs=1e-14)
    assert c.mean == pytest.approx(2.0, abs=1e-14)
    assert c.variance == pytest.approx(1.0, abs=1e-14)


def test_cumulant_at_zero_is_exact(std_gaussian, unit_uniform, table_model):
    for model in (std_gaussian, unit_uniform, table_model):
        c = inc.cumulant(model, 0.0)
        assert c.value == 0.0
        assert c.mean == model.mean
        assert c.variance == model.variance


def test_cumulant_uniform_quadrature_oracle(unit_uniform):
    oracle = math.log(quad(np.exp, 0.0, 1.0)[0])
    c = inc.cumulant(unit_uniform, 1.0)
    assert c.value == pytest.approx(oracle, abs=1e-12)
    assert c.value == pytest.approx(LN_E_MINUS_1, abs=1e-12)


def test_cumulant_rejects_out_of_range(std_gaussian):
    with pytest.raises(ValueError):
        inc.cumulant(std_gaussian, std_gaussian.lambda_hi * 1.5)


@pytest.mark.parametrize("lam", [-5e-324, -0.5, -np.inf])
def test_negative_tilts_are_rejected(std_gaussian, unit_uniform, table_model, lam):
    # every tilt the program takes is nonnegative, so the safe range starts at 0
    for model in (std_gaussian, unit_uniform, table_model):
        named = re.escape(f"[0, lambda_hi] = [0, {model.lambda_hi:.6g}]")
        for fn, arg in ((inc.log_mgf, lam), (inc.log_mgf, np.array([0.5, lam])),
                        (inc.cumulant, lam), (inc.cumulant, np.array([0.5, lam])),
                        (inc.tilt, lam)):
            with pytest.raises(ValueError, match=named):
                fn(model, arg)


def test_legendre_gaussian(std_gaussian):
    eta, rate, curvature = inc.legendre(std_gaussian, 0.3)
    assert eta == pytest.approx(0.3, abs=1e-12)
    assert rate == pytest.approx(0.045, abs=1e-12)
    assert curvature == 1.0


def test_legendre_at_the_mean(std_gaussian, unit_uniform):
    for model in (std_gaussian, unit_uniform):
        eta, rate, curvature = inc.legendre(model, model.mean)
        assert eta == 0.0 and rate == 0.0 and curvature == model.variance


def test_legendre_curvature_is_the_tilted_variance(std_gaussian, unit_uniform, table_model):
    # the sharp tail reads its curvature off legendre; it is the tilted
    # variance at eta bit for bit, and the model's own variance at the mean
    for model in (std_gaussian, inc.gaussian(-1.0, 4.0), unit_uniform, inc.uniform(-1.0, 2.0),
                  table_model):
        qs = model.mean + np.linspace(0.0, 0.95, 9) * (model.q_max - model.mean)
        got = inc.legendre(model, qs)
        assert_bitwise(got.curvature, inc.cumulant(model, got.eta).variance)
        assert got.curvature[0] == model.variance


def test_legendre_uniform_against_closed_form_root(unit_uniform):
    # independent oracle: eta solves (e^eta (eta-1) + 1) / (eta (e^eta - 1)) = 0.7
    f = lambda e: (np.exp(e) * (e - 1) + 1) / (e * (np.exp(e) - 1)) - 0.7
    oracle = brentq(f, 1e-6, 20.0, xtol=1e-14)
    assert oracle == pytest.approx(2.672103855273385, abs=1e-12)
    eta, rate, _ = inc.legendre(unit_uniform, 0.7)
    assert eta == pytest.approx(oracle, abs=1e-8)
    assert rate == pytest.approx(0.2528455630041859, abs=1e-8)


def test_legendre_rejects_unattainable(unit_uniform):
    with pytest.raises(ValueError):
        inc.legendre(unit_uniform, 0.4)  # below the mean
    with pytest.raises(ValueError):
        inc.legendre(unit_uniform, 1.5)  # above the attainable tilted mean


def test_front_velocity_values(std_gaussian, unit_uniform):
    assert inc.front_velocity(std_gaussian, 1.0) == pytest.approx(0.5, abs=1e-14)
    model = inc.gaussian(0.7, 2.0)
    for s in (0.5, 1.0, 2.0):
        assert inc.front_velocity(model, s) == pytest.approx(0.7 + 2.0 * s / 2.0, abs=1e-12)
    assert inc.front_velocity(unit_uniform, 1.0) == pytest.approx(LN_E_MINUS_1, abs=1e-12)


def test_front_velocity_dominates_mean(std_gaussian, unit_uniform, table_model):
    # Jensen: Lambda(s)/s >= mean, strictly for nondegenerate laws
    for model in (std_gaussian, unit_uniform, table_model):
        for s in (0.25, 1.0, 2.0):
            assert inc.front_velocity(model, s) > model.mean


def test_tilt_gaussian_closed_form():
    model = inc.gaussian(0.4, 2.5)
    tilted = inc.tilt(model, 1.2)
    assert tilted.kind == "gaussian"
    assert tilted.mean == pytest.approx(0.4 + 2.5 * 1.2, abs=1e-12)
    assert tilted.variance == pytest.approx(2.5, abs=1e-12)


def test_tilt_identity_at_zero(unit_uniform):
    assert inc.tilt(unit_uniform, 0.0) is unit_uniform


def test_tilt_uniform_direct_normalization(unit_uniform):
    tilted = inc.tilt(unit_uniform, 1.0)
    expected = np.exp(tilted.grid) / (math.e - 1.0)
    np.testing.assert_allclose(tilted.density, expected, atol=1e-8)


@pytest.mark.parametrize("s", [0.6, 0.9])
def test_tilt_round_trip(unit_uniform, table_model, s):
    for model in (unit_uniform, table_model):
        tilted = inc.tilt(model, s)
        # untilting by e^{-s h}, normalized by quadrature, gives the model back
        back = tilted.density * np.exp(-s * tilted.grid)
        np.testing.assert_allclose(back / inc._integrate(tilted.grid, back), model.density,
                                   atol=1e-8)
        # and two tilts by s are one tilt by 2s
        np.testing.assert_allclose(inc.tilt(tilted, s).density, inc.tilt(model, 2 * s).density,
                                   atol=1e-8)


def test_sample_empty_and_deterministic(std_gaussian):
    assert inc.sample(std_gaussian, 0, (1, 2)).size == 0
    a = inc.sample(std_gaussian, 1000, (7, 3))
    b = inc.sample(std_gaussian, 1000, (7, 3))
    np.testing.assert_array_equal(a, b)


def test_sample_gaussian_clt_bound(std_gaussian):
    draws = inc.sample(std_gaussian, 10 ** 5, (11,))
    assert abs(draws.mean()) < 4.0 / math.sqrt(10 ** 5)


def test_sample_tabulated_moments(table_model):
    draws = inc.sample(table_model, 10 ** 5, (13,))
    assert abs(draws.mean() - table_model.mean) < 4.0 * math.sqrt(table_model.variance / 10 ** 5)
    assert abs(draws.var() - table_model.variance) < 0.05 * table_model.variance


def test_step_cdf(std_gaussian, unit_uniform, table_model):
    assert inc.step_cdf(std_gaussian, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert inc.step_cdf(unit_uniform, 0.25) == pytest.approx(0.25, abs=1e-12)
    assert inc.step_cdf(unit_uniform, -3.0) == 0.0
    assert inc.step_cdf(unit_uniform, 3.0) == 1.0
    ts = np.linspace(-6, 6, 25)
    vals = inc.step_cdf(table_model, ts)
    assert np.all(np.diff(vals) >= -1e-12)


def test_sum_tail_gaussian_exact(std_gaussian):
    got = inc.sum_tail(std_gaussian, 100, 30.0)
    assert got.value == pytest.approx(0.0013498980316300933, rel=1e-12)
    assert got.se is None


def test_sum_tail_rejects_below_mean(std_gaussian, unit_uniform):
    for model, y in ((std_gaussian, -5.0), (unit_uniform, 10.0)):
        with pytest.raises(ValueError):
            inc.sum_tail(model, 100, y)


def test_sharp_terms_psi_positive(std_gaussian, unit_uniform):
    # psi = eta sqrt(tau curvature), the Bahadur-Rao scale, from one legendre call
    for model, q in ((std_gaussian, 0.2), (unit_uniform, 0.7)):
        eta, _, curvature = inc.legendre(model, q)
        assert eta > 0 and curvature > 0 and eta * math.sqrt(50 * curvature) > 0


def test_sum_tail_br_matches_its_formula(unit_uniform):
    # a non-gaussian model gets the Bahadur-Rao sharp tail
    eta, rate, _ = inc.legendre(unit_uniform, 8.0 / 12)
    curv = inc.cumulant(unit_uniform, eta).variance
    expected = math.exp(-12 * rate) / (eta * math.sqrt(2 * math.pi * 12 * curv))
    got = inc.sum_tail(unit_uniform, 12, 8.0)
    assert got.value == pytest.approx(expected, rel=1e-12)
    assert got.se is None


def test_sum_tail_mc_importance_matches_exact(std_gaussian):
    exact = inc.sum_tail(std_gaussian, 100, 30.0).value
    got = inc.sum_tail(std_gaussian, 100, 30.0, mc_samples=10 ** 6, mc_stream=(5, 1))
    assert got.se is not None and got.se > 0
    assert abs(got.value - exact) < 3.0 * got.se


def test_sum_tail_mc_grid_within_four_se(std_gaussian):
    for i, (tau, qq) in enumerate([(25, 0.35), (64, 0.3), (100, 0.25)]):
        exact = inc.sum_tail(std_gaussian, tau, qq * tau).value
        got = inc.sum_tail(std_gaussian, tau, qq * tau, mc_samples=200_000, mc_stream=(21, i))
        assert abs(got.value - exact) < 4.0 * got.se


def test_sum_tail_mc_nongaussian_batched(unit_uniform):
    # per-step batched sampling path; compare against a plain-MC oracle
    got = inc.sum_tail(unit_uniform, 12, 8.0, mc_samples=100_000, mc_stream=(23,))
    rng = np.random.default_rng(99)
    oracle = (rng.uniform(0, 1, size=(400_000, 12)).sum(axis=1) >= 8.0).mean()
    assert abs(got.value - oracle) < 4.0 * (got.se + math.sqrt(oracle / 400_000))


def test_sum_tail_mc_needs_two_samples(std_gaussian):
    # one draw has no standard error
    for n in (None, 1, 0):
        with pytest.raises(ValueError, match="mc_samples"):
            inc.sum_tail(std_gaussian, 100, 30.0, mc_samples=n, mc_stream=(5,))


def test_step_cdf_is_the_closed_form_or_one_minus_the_tail(std_gaussian, table_model):
    # these expressions fix the bytes of backward-tilt's KS statistic
    ts = np.linspace(-3.0, 3.0, 61)
    for model in (std_gaussian, inc.tilt(inc.gaussian(0.5, 0.25), 1.0)):
        m, v = model.mean, model.variance
        assert_bitwise(inc.step_cdf(model, ts), ndtr((ts - m) / math.sqrt(v)))
    for lo, hi in ((0.0, 1.0), (-0.5, 2.0)):
        assert_bitwise(inc.step_cdf(inc.uniform(lo, hi), ts),
                       1.0 - np.clip((hi - ts) / (hi - lo), 0.0, 1.0))
    # the tabulated tail is the trapezoid mass to the right of t
    grid, density = table_model.grid, table_model.density
    seg = (density[1:] + density[:-1]) * 0.5 * np.diff(grid)
    right = np.append(np.cumsum(seg[::-1])[::-1], 0.0)
    assert_bitwise(inc.step_cdf(table_model, ts),
                   1.0 - np.minimum(np.interp(ts, grid, right, left=right[0], right=0.0), 1.0))


def test_q_max_is_the_tilted_mean_at_lambda_hi(std_gaussian, unit_uniform, table_model):
    for model in (std_gaussian, unit_uniform, table_model):
        assert model.q_max == inc.cumulant(model, model.lambda_hi).mean
        with pytest.raises(ValueError, match="not attainable"):
            inc.legendre(model, model.q_max)


@pytest.mark.parametrize("model, s", [(inc.uniform(0.0, 1.0), 79.0),
                                      (inc.uniform(0.0, 1.0), 80.0),
                                      (inc.uniform(-1.0, 2.0, grid_points=301), 20.0)],
                         ids=["unit-79", "unit-80", "301-point-20"])
def test_uniform_tilt_builds_up_to_lambda_hi(model, s):
    # the tilted table is divided by its own quadrature mass, which is what
    # the density check integrates; the closed-form Lambda missed it by 1e-8
    assert s <= model.lambda_hi
    tilted = inc.tilt(model, s)
    assert abs(inc._integrate(tilted.grid, tilted.density) - 1.0) <= inc.DENSITY_TOL


def test_tabulated_tilt_divides_by_its_log_moment(table_model):
    # for a tabulated model the quadrature mass is exp(log_mgf), bit for bit
    s = 0.5 * table_model.lambda_hi
    expected = np.exp(s * table_model.grid + np.log(table_model.density)
                      - inc.log_mgf(table_model, s))
    assert inc.tilt(table_model, s).density.tobytes() == expected.tobytes()


def test_tail_ratio_exact_values(std_gaussian):
    got = inc.tail_ratio(std_gaussian, 100, 0.3, 1.0)
    assert got.ratio == pytest.approx(0.7167972621235027, rel=1e-12)
    assert got.prediction == pytest.approx(math.exp(-0.3), rel=1e-14)


def test_tail_ratio_at_zero_shift(std_gaussian):
    got = inc.tail_ratio(std_gaussian, 100, 0.3, 0.0)
    assert got.ratio == 1.0 and got.prediction == 1.0


def test_tail_ratio_window(std_gaussian):
    with pytest.raises(ValueError):
        inc.tail_ratio(std_gaussian, 100, 0.3, 7.0)  # 7 > 100**0.4


def test_tail_ratio_discrepancy_shrinks_with_tau(std_gaussian):
    diffs = []
    for tau in (25, 100, 400):
        got = inc.tail_ratio(std_gaussian, tau, 0.3, 1.0)
        diffs.append(abs(got.ratio - got.prediction))
    assert diffs[0] > diffs[1] > diffs[2]


def test_cumulant_convexity_on_random_tilts(std_gaussian, unit_uniform, table_model):
    rng = np.random.default_rng(3)
    for model in (std_gaussian, unit_uniform, table_model):
        lams = rng.uniform(0.0, model.lambda_hi, size=12)
        for lam in lams:
            assert inc.cumulant(model, lam).variance >= -1e-8


def test_legendre_round_trip(std_gaussian, unit_uniform, table_model):
    rng = np.random.default_rng(4)
    for model in (std_gaussian, unit_uniform, table_model):
        hi = min(model.lambda_hi, 5.0)
        for eta0 in rng.uniform(0.05, 0.8 * hi, size=6):
            q = inc.cumulant(model, eta0).mean
            assert abs(inc.legendre(model, q).eta - eta0) < 1e-8


def test_tabulated_density_validation():
    grid = np.linspace(0, 1, 101)
    with pytest.raises(ValueError):
        inc.tabulated(grid, np.full(101, 2.0))  # integrates to 2
    with pytest.raises(ValueError):
        inc.tabulated(grid, -np.ones(101))


def test_tabulated_rejects_malformed_tables():
    with pytest.raises(ValueError, match="1-d"):
        inc.tabulated(np.float64(5.0), np.float64(3.0))  # checked before any quadrature
    density = np.full(101, 1.0)
    density[50] = np.nan  # fails the sign and integral checks, as it must
    with pytest.raises(ValueError, match="NaN"):
        inc.tabulated(np.linspace(0, 1, 101), density)


def test_model_from_dict_round_trip():
    m = inc.model_from_dict({"kind": "gaussian", "mean": 1.0, "variance": 4.0})
    assert m.kind == "gaussian" and (m.mean, m.variance) == (1.0, 4.0)
    u = inc.model_from_dict({"kind": "uniform", "lo": -1.0, "hi": 1.0})
    assert u.kind == "uniform" and (u.grid[0], u.grid[-1]) == (-1.0, 1.0)
    with pytest.raises(ValueError):
        inc.model_from_dict({"kind": "cauchy"})


# ---------------------------------------------------------------------------
# properties of the folded (scalar or array) cumulant, Legendre and tail layer

PROPERTY_MODELS = (inc.gaussian(0.0, 1.0), inc.gaussian(0.5, 0.25), inc.gaussian(-1.0, 4.0),
                   inc.uniform(0.0, 1.0), inc.uniform(-1.0, 2.0))


def assert_bitwise(ours, reference):
    ours, reference = np.asarray(ours, dtype=float), np.asarray(reference, dtype=float)
    assert ours.shape == reference.shape
    assert ours.tobytes() == reference.tobytes()


def draw_array(data, lo, hi, *special):
    values = hst.one_of(hst.sampled_from((lo, *special)), hst.floats(lo, hi))
    return data.draw(arrays(np.float64, hst.integers(1, 5), elements=values))


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_cumulant_array_equals_scalar_calls(data):
    model = data.draw(hst.sampled_from(PROPERTY_MODELS))
    lams = draw_array(data, 0.0, model.lambda_hi, model.lambda_hi)
    got = inc.cumulant(model, lams)
    for field in inc.Cumulant._fields:
        one_by_one = [getattr(inc.cumulant(model, float(lam)), field) for lam in lams]
        assert all(type(v) is float for v in one_by_one)
        assert_bitwise(getattr(got, field), one_by_one)


def test_quadrature_rows_equal_scalar_calls_across_blocks(unit_uniform, table_model):
    # 150 tilts span three row blocks of a 2001-point grid and four of 3201
    # points; each row is reduced on its own, so no block boundary moves a bit
    for model in (unit_uniform, table_model):
        lams = np.linspace(0.0, model.lambda_hi, 150)
        got = inc.cumulant(model, lams)
        for field in inc.Cumulant._fields:
            assert_bitwise(getattr(got, field),
                           [getattr(inc.cumulant(model, float(lam)), field) for lam in lams])
    lams = np.linspace(0.0, table_model.lambda_hi, 150)
    assert_bitwise(inc.log_mgf(table_model, lams),
                   [inc.log_mgf(table_model, float(lam)) for lam in lams])


def test_quadrature_memory_is_flat(unit_uniform, table_model):
    # one (tilt, grid) array of 4000 tilts takes 64 MB on the uniform's 2001
    # points and 102 MB on the table's 3201; the quadrature holds a row block
    lams = np.linspace(0.0, unit_uniform.lambda_hi, 4000)
    table_lams = np.linspace(0.0, table_model.lambda_hi, 4000)
    inc.cumulant(unit_uniform, lams[:2])
    inc.log_mgf(table_model, table_lams[:2])
    tracemalloc.start()
    try:
        inc.cumulant(unit_uniform, lams)
        inc.log_mgf(table_model, table_lams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@settings(max_examples=25, deadline=None)
@given(hst.data())
def test_legendre_array_equals_scalar_calls(data):
    model = data.draw(hst.sampled_from(PROPERTY_MODELS))
    q_top = inc.cumulant(model, model.lambda_hi).mean
    qs = draw_array(data, model.mean, np.nextafter(q_top, -np.inf))
    got = inc.legendre(model, qs)
    for field in inc.Legendre._fields:
        one_by_one = [getattr(inc.legendre(model, float(q)), field) for q in qs]
        assert_bitwise(getattr(got, field), one_by_one)


@settings(max_examples=25, deadline=None)
@given(hst.data())
def test_tail_curve_array_equals_scalar_calls(data):
    model = data.draw(hst.sampled_from(PROPERTY_MODELS))
    tau = data.draw(hst.integers(1, 60))
    sd = math.sqrt(tau * model.variance)
    ys = draw_array(data, tau * model.mean - 8.0 * sd, tau * model.mean + 12.0 * sd)
    curve = inc.tail_curve(model, tau)
    assert_bitwise(curve(ys), [curve(float(y)) for y in ys])


# a tabulated model as tilt builds it; its quadrature mass at lam = 0 is 1 only
# to about 3e-14, so the exact 0 there is log_mgf's doing
TILTED_UNIFORM = inc.tilt(inc.uniform(0.0, 1.0), 3.0)


def draw_model(data):
    kind = data.draw(hst.sampled_from(("gaussian", "uniform", "tabulated")))
    if kind == "gaussian":
        mean = data.draw(hst.floats(-50.0, 50.0))
        return inc.gaussian(mean, data.draw(hst.floats(0.01, 100.0)))
    if kind == "uniform":
        lo = data.draw(hst.floats(-20.0, 20.0))
        return inc.uniform(lo, lo + data.draw(hst.floats(0.01, 30.0)))
    return TILTED_UNIFORM


def gaussian_table(m, v):
    # a tabulated copy of gaussian(m, v) on 4001 points over m +- 12 sd, for
    # the quadrature paths that a gaussian, carrying no table, never takes
    sd = float(np.sqrt(v))
    grid = np.linspace(m - 12.0 * sd, m + 12.0 * sd, 4001)
    return inc.tabulated(grid, np.exp(-0.5 * ((grid - m) / sd) ** 2) / (sd * np.sqrt(2 * np.pi)))


@settings(max_examples=150, deadline=None)
@given(hst.data())
def test_log_mgf_is_the_cumulant_value(data):
    # the log moment alone, bit for bit what cumulant reports, exactly 0 at
    # lam = 0, and within quadrature error of the tilted-density integral
    model = draw_model(data)
    lams = draw_array(data, 0.0, model.lambda_hi, model.lambda_hi)
    got = inc.log_mgf(model, lams)
    assert_bitwise(got, inc.cumulant(model, lams).value)
    assert_bitwise(got, [inc.log_mgf(model, float(lam)) for lam in lams])
    assert np.all(got[lams == 0.0] == 0.0)
    for lam in (float(lams[0]), 0.0, model.lambda_hi):
        value = inc.log_mgf(model, lam)
        assert type(value) is float
        assert value == inc.cumulant(model, lam).value
    table = gaussian_table(model.mean, model.variance) if model.kind == "gaussian" else model
    quad_value = inc._quad_cumulant(table, lams[lams != 0.0])[0]
    assert np.allclose(got[lams != 0.0], quad_value, rtol=1e-7, atol=1e-7)
    bad = data.draw(hst.sampled_from((np.nan, model.lambda_hi * 1.5 + 1.0, -5e-324,
                                      -model.lambda_hi * 1.5 - 1.0)))
    for tilts in (bad, np.append(lams, bad)):
        with pytest.raises(ValueError) as ours:
            inc.log_mgf(model, tilts)
        with pytest.raises(ValueError) as reference:
            inc.cumulant(model, tilts)
        assert str(ours.value) == str(reference.value)


GAUSSIAN_MODELS = tuple(m for m in PROPERTY_MODELS if m.kind == "gaussian")


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_gaussian_sum_tail_is_tail_curve(data):
    # the single-point gaussian tail is the one full-line curve, bit for
    # bit, and that curve is the closed-form normal tail
    model = data.draw(hst.sampled_from(GAUSSIAN_MODELS))
    m, v = model.mean, model.variance
    tau = data.draw(hst.integers(1, 400))
    q_top = inc.cumulant(model, model.lambda_hi).mean
    q = data.draw(hst.floats(m, q_top, exclude_min=True, exclude_max=True))
    y = q * tau
    got = inc.sum_tail(model, tau, y)
    assert got.value == inc.tail_curve(model, tau)(y)
    assert got.value == float(ndtr(-((y - tau * m) / np.sqrt(tau * v))))


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_legendre_inverts_the_tilted_mean(data):
    model = data.draw(hst.sampled_from(PROPERTY_MODELS))
    eta = data.draw(hst.floats(0.0, 0.9 * model.lambda_hi))
    got = inc.legendre(model, inc.cumulant(model, eta).mean).eta
    assert got == pytest.approx(eta, abs=1e-8)


TABULATED_GAUSSIANS = tuple((m, v, gaussian_table(m, v)) for m, v in ((0.0, 1.0), (0.4, 2.0)))


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_chernoff_bound_dominates_the_gaussian_log_tail(data):
    # a tabulated copy of a gaussian takes the Chernoff path of log_tail_bound
    m, v, model = data.draw(hst.sampled_from(TABULATED_GAUSSIANS))
    tau = data.draw(hst.integers(1, 200))
    per_step = draw_array(data, m - 3.0 * math.sqrt(v), m + 8.0 * math.sqrt(v))
    t = tau * per_step
    exact = log_ndtr(-((t - tau * m) / math.sqrt(tau * v)))
    assert np.all(inc.log_tail_bound(model, tau, t) >= exact)
