import math

import numpy as np
import pytest
from scipy.stats import norm

from edgerace import configurations as cf
from edgerace import dynamics as dy
from edgerace import increments as inc
from edgerace import stats as st
from edgerace.streams import substream


@pytest.fixture(scope="module")
def std_gaussian():
    return inc.gaussian(0.0, 1.0)


def test_evolve_with_injected_increments(std_gaussian):
    config = cf.from_points([0.0, -1.0, -2.0], window_depth=10.0)
    record = dy.evolve(config, std_gaussian, increments=[0.5, 2.0, 0.1])
    np.testing.assert_allclose(record.post.positions, [1.0, 0.5, -1.9])
    np.testing.assert_array_equal(record.permutation, [1, 0, 2])
    assert record.front_displacement == pytest.approx(1.0)
    assert record.dropped == 0


def test_evolve_ties_keep_pre_rank_order(std_gaussian):
    # 300 particles land on six integers (exact arithmetic): 294 ties, each
    # listed in pre-rank order
    config = cf.from_points(-np.arange(300.0), window_depth=np.inf)
    landing = (np.arange(300) * 7) % 6
    record = dy.evolve(config, std_gaussian, increments=landing - config.positions)
    perm = record.permutation
    np.testing.assert_array_equal(record.post.positions, np.sort(landing)[::-1])
    same = landing[perm][1:] == landing[perm][:-1]
    assert same.sum() == 294 and np.all(perm[1:][same] > perm[:-1][same])


@pytest.mark.parametrize("n", [2, 17, 3000])
def test_evolve_ranks_like_a_stable_sort(std_gaussian, n):
    base = cf.sample_rem(1.0, 0.0, n, (13, n))
    config = cf.Configuration(base.positions, np.inf)
    for r in range(5):
        record = dy.evolve(config, std_gaussian, stream=(14, n, r))
        moved = config.positions + record.increments
        np.testing.assert_array_equal(record.permutation, np.argsort(-moved, kind="stable"))


def test_evolve_single_particle(std_gaussian):
    config = cf.from_points([3.0], window_depth=1.0)
    record = dy.evolve(config, std_gaussian, stream=(42,))
    assert record.post.size == 1
    assert record.post.positions[0] == pytest.approx(3.0 + record.increments[0])
    np.testing.assert_array_equal(record.permutation, [0])


def test_evolve_near_deterministic_drift():
    model = inc.gaussian(0.7, 1e-12)
    base = cf.sample_rem(1.0, 0.0, 50, (8,))
    config = cf.Configuration(base.positions, np.inf)
    record = dy.evolve(config, model, stream=(9,))
    np.testing.assert_allclose(record.post.positions, config.positions + 0.7, atol=1e-4)
    np.testing.assert_array_equal(record.permutation, np.arange(50))


def test_evolve_window_reanchoring(std_gaussian):
    config = cf.from_points([0.0, -0.5, -3.0], window_depth=2.0)
    record = dy.evolve(config, std_gaussian, increments=[1.0, 1.0, 1.0])
    # all particles move together; the trailing one stays 3 behind and is dropped
    assert record.dropped == 1
    assert record.post.size == 2


def test_evolve_increments_drawn_for_dropped_particles(std_gaussian):
    # stream alignment: the retained particles see the same increments
    # regardless of how deep the window reaches
    deep = cf.from_points([0.0, -1.0, -2.0, -9.0], window_depth=20.0)
    shallow = cf.from_points([0.0, -1.0, -2.0, -9.0], window_depth=3.0)
    r_deep = dy.evolve(deep, std_gaussian, stream=(4, 4))
    r_shallow = dy.evolve(shallow, std_gaussian, stream=(4, 4))
    np.testing.assert_array_equal(r_deep.increments, r_shallow.increments)


def test_evolve_many_zero_steps(std_gaussian):
    config = cf.from_points([1.0, 0.0])
    trace = dy.evolve_many(config, std_gaussian, 0, (5,))
    np.testing.assert_array_equal(trace.final.positions, config.positions)
    assert trace.displacements.size == 0


def test_evolve_many_deterministic(std_gaussian):
    config = cf.sample_rem(1.0, 0.0, 100, (6, 0))
    a = dy.evolve_many(config, std_gaussian, 7, (6, 1))
    b = dy.evolve_many(config, std_gaussian, 7, (6, 1))
    np.testing.assert_array_equal(a.final.positions, b.final.positions)
    np.testing.assert_array_equal(a.displacements, b.displacements)


def test_front_velocity_certified_horizon(std_gaussian):
    # short horizon so the sampled window can feed the front: the ancestry
    # depth demand is about tau * (Lambda'(s) - V) = tau/2 for this model
    tau, reps, depth = 8, 200, 3000
    vels = np.empty(reps)
    for r in range(reps):
        config = cf.sample_rem(1.0, 0.0, depth, (71, r, 0))
        trace = dy.evolve_many(config, std_gaussian, tau, (71, r, 1))
        vels[r] = (trace.final.leader - config.leader) / tau
    assert abs(vels.mean() - 0.5) < 0.05


def test_regularity_count_values(std_gaussian):
    single = cf.from_points([0.0])
    assert dy.regularity_count(single, std_gaussian, 0.0) == pytest.approx(0.5, abs=1e-12)
    pair = cf.from_points([0.0, -1.0])
    expected = float(norm.sf(1.0) + norm.sf(2.0))
    assert dy.regularity_count(pair, std_gaussian, 1.0) == pytest.approx(expected, rel=1e-12)
    vals = [dy.regularity_count(pair, std_gaussian, x) for x in np.linspace(0, 8, 17)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-8


def test_truncation_bias_deep_window(std_gaussian):
    config = cf.sample_rem(1.0, 0.0, 10_000, (83,))
    bound = dy.truncation_bias(config, std_gaussian, tau=5,
                               cutoff=config.leader + 2.5, window=40.0)
    assert 0.0 <= bound < 1e-6


def test_truncation_bias_no_window_reports_full_mass(std_gaussian):
    single = cf.from_points([0.0], window_depth=0.0)
    bound = dy.truncation_bias(single, std_gaussian, tau=1, cutoff=0.0, fit=(1.0, 1.0))
    assert bound > 0.5  # nothing is certified; the continuation mass is reported


def test_truncation_bias_decreasing_in_window(std_gaussian):
    config = cf.sample_rem(1.0, 0.0, 5000, (84,))
    cutoff = config.leader + 2.0
    bounds = [dy.truncation_bias(config, std_gaussian, 3, cutoff, window=w)
              for w in (6.0, 10.0, 16.0, 28.0)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_truncation_bias_uniform_support_cutoff():
    model = inc.uniform(0.0, 1.0)
    config = cf.sample_rem(1.0, 0.0, 2000, (85,))
    # after tau steps nothing can advance more than tau, so deep intruders
    # need jumps beyond the support and the bound collapses to zero
    bound = dy.truncation_bias(config, model, tau=3, cutoff=config.leader + 1.0,
                               window=6.0)
    assert bound < 1e-8


def test_truncation_bias_degenerate_fit(std_gaussian):
    single = cf.from_points([0.0], window_depth=0.0)
    with pytest.raises(ValueError):
        dy.truncation_bias(single, std_gaussian, 1, 0.0)


def test_gap_law_invariance_one_step(std_gaussian):
    # quasi-stationarity content: pre and post first-gap samples agree by KS
    reps = 4000
    pre = np.empty(reps)
    post = np.empty(reps)
    for r in range(reps):
        config = cf.sample_rem(1.0, 0.0, 1500, (90, r, 0))
        record = dy.evolve(config, std_gaussian, substream((90, r), 1))
        pre[r] = config.positions[0] - config.positions[1]
        post[r] = record.post.positions[0] - record.post.positions[1]
    assert st.ks_two_sample(pre, post).passes(0.01)


def test_backward_increments_match_tilted_law(std_gaussian):
    # increments attached to the top ranks after one step are i.i.d. with the
    # exponentially reweighted law; for the standard gaussian that is N(s, 1).
    # top is held well below depth so the intruder certificate has headroom
    s, reps, depth, top = 1.0, 300, 20_000, 50
    collected = []
    for r in range(reps):
        config = cf.sample_rem(s, 0.0, depth, (91, r, 0))
        record = dy.evolve(config, std_gaussian, substream((91, r), 1))
        collected.append(record.increments[record.permutation[:top]])
    sample = np.concatenate(collected)
    res = st.ks_distance(sample, lambda h: norm.cdf(h - 1.0))
    assert res.passes(0.01)
    config = cf.sample_rem(s, 0.0, depth, (91, 0, 0))
    record = dy.evolve(config, std_gaussian, substream((91, 0), 1))
    cert = dy.truncation_bias(config, std_gaussian, 1,
                              cutoff=record.post.positions[top - 1])
    assert cert < 1e-4


def test_two_particle_spreading(std_gaussian):
    # finite configurations spread out: the min-gap exceedance probability
    # grows along the evolution
    y, reps = 1.0, 300
    exceed = {}
    for tau in (1, 10, 100):
        hits = 0
        for r in range(reps):
            config = cf.from_points([0.0, -0.5])
            trace = dy.evolve_many(config, std_gaussian, tau, (94, tau, r))
            if trace.final.positions[0] - trace.final.positions[1] > y:
                hits += 1
        exceed[tau] = hits / reps
    assert exceed[1] < exceed[10] < exceed[100]
