import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.stats import chi2

from edgerace import configurations as cf
from edgerace import increments as inc
from edgerace import laplace as lp
from edgerace import poissonization as pz
from edgerace import stats as st


def test_from_points_sorts_descending():
    config = cf.from_points([-1.0, 0.0, -2.0], window_depth=10.0)
    np.testing.assert_array_equal(config.positions, [0.0, -1.0, -2.0])


def test_from_points_single_and_duplicates():
    assert cf.from_points([5.0]).positions.tolist() == [5.0]
    config = cf.from_points([1.0, 3.0, 1.0, 3.0])
    assert config.positions.tolist() == [3.0, 3.0, 1.0, 1.0]


def test_from_points_empty_rejected():
    with pytest.raises(ValueError):
        cf.from_points([])


EDGE_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324,
               1e308, -1e308]


@settings(max_examples=300, deadline=None)
@given(hst.data())
def test_configuration_checks_match_diff_predicates(data):
    # the checks raise exactly when np.diff and np.all(np.isfinite) would say so
    values = data.draw(hst.lists(hst.sampled_from(EDGE_FLOATS) | hst.floats(), min_size=1,
                                 max_size=8))
    pos = np.array(values, dtype=float)
    shape = data.draw(hst.sampled_from(["raw", "descending", "ascending_pair", "equal_pair"]))
    if shape != "raw":
        pos = np.sort(pos)[::-1].copy()  # descending, NaN first
        if pos.size > 1 and shape != "descending":
            i = data.draw(hst.integers(0, pos.size - 2))
            if shape == "ascending_pair":
                pos[i], pos[i + 1] = pos[i + 1], pos[i]
            else:
                pos[i + 1] = pos[i]
    depth = data.draw(hst.sampled_from([0.0, -0.0, -1e-300, -1.0, 2.5, math.inf, math.nan])
                      | hst.floats())
    with np.errstate(invalid="ignore", over="ignore"):
        rejected = (np.any(np.diff(pos) > 0) or not np.all(np.isfinite(pos))
                    or depth < 0)
    if rejected:
        with pytest.raises(ValueError):
            cf.Configuration(pos.copy(), depth)
    else:
        config = cf.Configuration(pos.copy(), depth)
        assert config.positions.tobytes() == pos.tobytes()


_LINE = np.linspace(0.0, 1.0, 11)


@pytest.mark.parametrize("build, arrays, fields", [
    (lambda pos: cf.Configuration(pos, 1.0), [_LINE[::-1]], ["positions"]),
    (lp.LaplaceMeasure, [_LINE + 0.5, np.ones(11)], ["u", "w"]),
    (lambda grid, cdf: pz.LeaderLaw(grid, cdf, "exact"), [_LINE, _LINE], ["grid", "cdf"]),
    (inc.tabulated, [_LINE, np.ones(11)], ["grid", "density"]),
], ids=["Configuration", "LaplaceMeasure", "LeaderLaw", "IncrementModel"])
def test_instance_freezes_a_view_not_the_callers_array(build, arrays, fields):
    given = [a.copy() for a in arrays]
    instance = build(*given)
    for a, original, name in zip(given, arrays, fields):
        held = getattr(instance, name)
        assert a.flags.writeable and not held.flags.writeable
        assert np.shares_memory(held, a)  # a view, not a copy
        np.testing.assert_array_equal(held, original)
        a[0] = -1.0  # the caller may still write to its own array
        with pytest.raises(ValueError, match="read-only"):
            held[0] = -1.0


def test_gaps_values():
    config = cf.from_points([0.0, -1.0, -2.0])
    np.testing.assert_allclose(cf.gaps(config), [0.0, 1.0, 2.0])
    assert cf.gaps(cf.from_points([5.0])).tolist() == [0.0]


def test_gaps_shift_invariant():
    config = cf.from_points([0.3, -0.9, -4.0])
    shifted = cf.Configuration(config.positions + 17.5, config.window_depth)
    np.testing.assert_allclose(cf.gaps(config), cf.gaps(shifted))


def test_rem_mean_count_within_three_sigma():
    # occupancy oracle: expected count within y of the leader is e^{s y}
    y, reps = 3.0, 4000
    counts = np.empty(reps)
    for r in range(reps):
        config = cf.sample_rem(1.0, 0.0, 400, (501, r))
        counts[r] = np.searchsorted(cf.gaps(config), y, side="right")
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - math.exp(y)) < 3.0 * se


def test_sample_rem_matches_intensity_sampler_bitwise():
    a = cf.sample_rem(1.0, 0.0, 200, (77, 1))
    b = cf.sample_from_tail_intensity(lp.exponential_intensity(1.0, 0.0), 200, (77, 1))
    np.testing.assert_array_equal(a.positions, b.positions)


def test_sampler_determinism():
    a = cf.sample_rem(2.0, 1.0, 64, (9, 9))
    b = cf.sample_rem(2.0, 1.0, 64, (9, 9))
    np.testing.assert_array_equal(a.positions, b.positions)


def test_sampler_takes_a_particle_count():
    intensity = lp.exponential_intensity(1.0)
    config = cf.sample_from_tail_intensity(intensity, np.int64(40), (31,))
    assert config.size == 40
    assert config.window_depth == config.leader - config.positions[-1]
    # the first k points do not depend on how many are asked for
    head = cf.sample_from_tail_intensity(intensity, 10, (31,))
    np.testing.assert_array_equal(head.positions, config.positions[:10])
    for bad in (5.0, True, 0):
        with pytest.raises(ValueError):
            cf.sample_from_tail_intensity(intensity, bad, (31,))


def test_rem_first_gap_exponential_ks():
    # gap-law oracle: the first-gap survival of the exponential intensity is
    # e^{-s u} (verified against the quadrature form in the laplace tests)
    reps = 10_000
    gaps1 = np.empty(reps)
    for r in range(reps):
        config = cf.sample_rem(1.0, 0.0, 3, (811, r))
        gaps1[r] = config.positions[0] - config.positions[1]
    res = st.ks_distance(gaps1, lambda u: 1.0 - np.exp(-u))
    assert res.statistic < res.critical[0.01]


def test_rem_scaling_halves_gaps_bitwise():
    a = cf.sample_rem(1.0, 0.0, 100, (13, 5))
    b = cf.sample_rem(2.0, 0.0, 100, (13, 5))
    np.testing.assert_allclose(cf.gaps(b), cf.gaps(a) / 2.0, rtol=1e-12)


def test_rem_kth_gap_means():
    reps, s = 10_000, 1.0
    deep = np.empty((reps, 11))
    for r in range(reps):
        config = cf.sample_rem(s, 0.0, 12, (907, r))
        deep[r] = -np.diff(config.positions)
    for k in (1, 2, 5, 10):
        vals = deep[:, k - 1]
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 1.0 / (k * s)) < 3.0 * se


def test_rem_leader_is_gumbel():
    reps = 10_000
    leaders = np.empty(reps)
    for r in range(reps):
        leaders[r] = cf.sample_rem(1.0, 0.0, 3, (1213, r)).leader
    res = st.ks_distance(leaders, lambda x: np.exp(-np.exp(-x)))
    assert res.statistic < res.critical[0.01]


def test_rem_count_above_level_is_poisson():
    # chi-square goodness of fit at alpha=0.01 for the count above a fixed level
    reps, mean = 10_000, 2.0
    level = -math.log(mean)  # e^{-s level} = mean for s=1, z=0
    counts = np.empty(reps, dtype=int)
    for r in range(reps):
        config = cf.sample_rem(1.0, 0.0, 60, (1500, r))
        counts[r] = int(np.sum(config.positions >= level))
    kmax = 8
    observed = np.bincount(np.minimum(counts, kmax), minlength=kmax + 1)
    pk = np.array([math.exp(-mean) * mean ** k / math.factorial(k) for k in range(kmax)])
    expected = np.append(pk, 1.0 - pk.sum()) * reps
    statistic = float(((observed - expected) ** 2 / expected).sum())
    assert statistic < chi2.ppf(0.99, kmax)


def test_rem_gap_ranks_uncorrelated():
    reps = 10_000
    g1 = np.empty(reps)
    g2 = np.empty(reps)
    for r in range(reps):
        config = cf.sample_rem(1.0, 0.0, 4, (1700, r))
        g1[r] = config.positions[0] - config.positions[1]
        g2[r] = config.positions[1] - config.positions[2]
    corr = np.corrcoef(g1, g2)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(reps)
