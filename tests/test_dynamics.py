import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.stats import norm

from edgerace import configurations as cf
from edgerace import dynamics as dy
from edgerace import experiments as ex
from edgerace import increments as inc
from edgerace import stats as st
from edgerace.streams import substream


@pytest.fixture(scope="module")
def std_gaussian():
    return inc.gaussian(0.0, 1.0)


def test_evolve_with_injected_increments(std_gaussian):
    config = cf.Configuration([0.0, -1.0, -2.0], 10.0)
    record = dy.evolve(config, std_gaussian, increments=[0.5, 2.0, 0.1])
    np.testing.assert_allclose(record.post.positions, [1.0, 0.5, -1.9])
    np.testing.assert_array_equal(record.permutation, [1, 0, 2])
    assert record.front_displacement == pytest.approx(1.0)
    assert record.dropped == 0


def test_evolve_ties_keep_pre_rank_order(std_gaussian):
    # 300 particles land on six integers (exact arithmetic): 294 ties, each
    # listed in pre-rank order
    config = cf.Configuration(-np.arange(300.0), np.inf)
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


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_evolve_permutation_matches_increments(data):
    # whole-number starts and increments force ties before and after the move
    n = data.draw(hst.integers(1, 40))
    whole = hst.integers(-4, 4).map(float)
    points = data.draw(hst.lists(whole | hst.floats(-10.0, 10.0), min_size=n, max_size=n))
    depth = data.draw(hst.just(np.inf) | hst.floats(0.0, 12.0))
    config = cf.Configuration(np.sort(points)[::-1], depth)
    model = inc.gaussian(0.0, 1.0)
    source = data.draw(hst.sampled_from(["ties", "floats", "stream"]))
    if source == "stream":
        record = dy.evolve(config, model, stream=(15, data.draw(hst.integers(0, 10 ** 6))))
    else:
        steps = whole if source == "ties" else hst.floats(-6.0, 6.0)
        h = data.draw(hst.lists(steps, min_size=n, max_size=n))
        record = dy.evolve(config, model, increments=h)
    perm = record.permutation
    moved = (record.pre.positions + record.increments)[perm]
    assert record.post.positions.tobytes() == moved.tobytes()
    assert np.unique(perm).size == perm.size and np.all((0 <= perm) & (perm < n))
    assert record.dropped == n - record.post.size


def _reference_rem(s, depth, key):
    """sample_rem positions as first written: a fresh one-atom intensity inverted
    at cumulative exponential arrivals."""
    rng = np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))
    arrivals = np.cumsum(rng.exponential(size=depth))
    return 0.0 - np.log(arrivals / 1.0) / s


def _reference_evolve(positions, window_depth, h):
    """evolve as first written: boolean-mask window, np.any/np.isfinite checks."""
    n = positions.size
    moved = positions + h
    order = np.argsort(-moved)
    ranked = moved[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(-moved, kind="stable")
        ranked = moved[order]
    if np.isfinite(window_depth):
        keep = ranked >= ranked[0] - window_depth
    else:
        keep = np.ones(n, dtype=bool)
    return (ranked[keep], order[keep], float(ranked[0] - positions[0]),
            int(n - keep.sum()))


def _assert_replica_bitwise(record, h, window_depth):
    post, perm, front, dropped = _reference_evolve(record.pre.positions, window_depth, h)
    assert record.increments.tobytes() == h.tobytes()
    assert record.post.positions.tobytes() == post.tobytes()
    assert record.post.window_depth == window_depth
    assert record.permutation.tobytes() == perm.tobytes()
    assert record.front_displacement == front
    assert record.dropped == dropped
    # the gaps the replica experiments record, zero signs included
    assert ex._spacings(record.post.positions).tobytes() == (-np.diff(post)).tobytes()
    return dropped


@pytest.mark.parametrize("seed", [401, 402, 403, 811])
def test_replica_path_matches_reference_bitwise(std_gaussian, seed):
    dropped = 0
    for r in range(3):
        key = (seed, r)
        config = cf.sample_rem(1.0, 0.0, 3000, substream(key, 0))
        positions = _reference_rem(1.0, 3000, substream(key, 0))
        assert config.positions.tobytes() == positions.tobytes()
        assert config.window_depth == float(positions[0] - positions[-1])
        assert (ex._spacings(config.positions[:6]).tobytes()
                == (-np.diff(positions[:6])).tobytes())
        h = np.random.default_rng(np.random.SeedSequence([seed, r, 1])).normal(
            0.0, 1.0, size=3000)
        finite = dy.evolve(config, std_gaussian, substream(key, 1))
        dropped += _assert_replica_bitwise(finite, h, config.window_depth)
        infinite = dy.evolve(cf.Configuration(config.positions, np.inf), std_gaussian,
                             substream(key, 1))
        assert _assert_replica_bitwise(infinite, h, np.inf) == 0
    assert dropped > 0  # the finite window did drop particles


@pytest.mark.parametrize("window_depth", [np.inf, 2.0])
def test_replica_path_with_ties_matches_reference_bitwise(std_gaussian, window_depth):
    # 300 particles land on six integers: ties after the move, and with the
    # finite window the three lowest landings fall out of it
    config = cf.Configuration(-np.arange(300.0), window_depth)
    h = (np.arange(300) * 7) % 6 - config.positions
    record = dy.evolve(config, std_gaussian, increments=h)
    dropped = _assert_replica_bitwise(record, h, window_depth)
    assert dropped == (150 if np.isfinite(window_depth) else 0)
    zero = ex._spacings(record.post.positions) == 0.0
    assert zero.sum() > 0 and np.all(np.signbit(ex._spacings(record.post.positions)[zero]))


def test_evolve_nan_sorts_last_and_leaves_the_window(std_gaussian):
    # NaN ranks last and fails the window cut, so a finite window drops it;
    # an infinite window keeps every particle and rejects it
    config = cf.Configuration([3.0, 2.0, 1.0], 5.0)
    record = dy.evolve(config, std_gaussian, increments=[math.nan, 0.0, 0.0])
    assert record.post.positions.tolist() == [2.0, 1.0]
    assert record.permutation.tolist() == [1, 2]
    assert record.dropped == 1
    assert record.front_displacement == -1.0
    with pytest.raises(ValueError, match="positions must be finite"):
        dy.evolve(cf.Configuration([3.0, 2.0, 1.0], np.inf), std_gaussian,
                  increments=[math.nan, 0.0, 0.0])


def test_evolve_zero_signs_keep_pre_rank_order(std_gaussian):
    # 0.0 and -0.0 tie but differ in bits: ranks and positions both follow
    # the stable sort, so post is moved[permutation] bit for bit
    rng = np.random.default_rng(17)
    signed = [1.0, 0.0, -0.0, -1.0]
    for n in (2, 7, 40, 300):
        positions = -np.sort(-rng.choice(signed, size=n))
        h = rng.choice(signed, size=n)
        record = dy.evolve(cf.Configuration(positions, np.inf), std_gaussian, increments=h)
        moved = positions + h
        order = np.argsort(-moved, kind="stable")
        assert record.permutation.tobytes() == order.tobytes()
        assert record.post.positions.tobytes() == moved[order].tobytes()
    zero_signs = np.signbit(moved[moved == 0.0])
    assert zero_signs.any() and not zero_signs.all()


def test_evolve_copies_injected_increments(std_gaussian):
    # the permutation is computed on its first read, after the caller may
    # have reused its array
    h = np.array([0.5, 2.0, 0.1])
    record = dy.evolve(cf.Configuration([0.0, -1.0, -2.0], np.inf), std_gaussian,
                       increments=h)
    h[:] = [3.0, 0.0, 0.0]
    assert record.increments.tolist() == [0.5, 2.0, 0.1]
    assert record.permutation.tolist() == [1, 0, 2]
    assert record.permutation is record.permutation


def test_evolve_single_particle(std_gaussian):
    config = cf.Configuration([3.0], 1.0)
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
    config = cf.Configuration([0.0, -0.5, -3.0], 2.0)
    record = dy.evolve(config, std_gaussian, increments=[1.0, 1.0, 1.0])
    # all particles move together; the trailing one stays 3 behind and is dropped
    assert record.dropped == 1
    assert record.post.size == 2


def test_evolve_increments_drawn_for_dropped_particles(std_gaussian):
    # stream alignment: the retained particles see the same increments
    # regardless of how deep the window reaches
    deep = cf.Configuration([0.0, -1.0, -2.0, -9.0], 20.0)
    shallow = cf.Configuration([0.0, -1.0, -2.0, -9.0], 3.0)
    r_deep = dy.evolve(deep, std_gaussian, stream=(4, 4))
    r_shallow = dy.evolve(shallow, std_gaussian, stream=(4, 4))
    np.testing.assert_array_equal(r_deep.increments, r_shallow.increments)


def test_evolve_many_zero_steps(std_gaussian):
    config = cf.Configuration([1.0, 0.0], np.inf)
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


def test_truncation_bias_deep_window(std_gaussian):
    config = cf.sample_rem(1.0, 0.0, 10_000, (83,))
    bound = dy.truncation_bias(cf.Configuration(config.positions, 40.0), std_gaussian, tau=5,
                               cutoff=config.leader + 2.5)
    assert 0.0 <= bound < 1e-6


def test_truncation_bias_no_window_reports_full_mass(std_gaussian):
    # particle k sits log k behind the leader, so the fitted occupancy is e^y
    config = cf.Configuration(-np.log(np.arange(1.0, 101.0)), window_depth=0.0)
    bound = dy.truncation_bias(config, std_gaussian, tau=1, cutoff=0.0)
    assert bound > 0.5  # nothing is certified; the continuation mass is reported


def test_truncation_bias_decreasing_in_window(std_gaussian):
    config = cf.sample_rem(1.0, 0.0, 5000, (84,))
    cutoff = config.leader + 2.0
    bounds = [dy.truncation_bias(cf.Configuration(config.positions, w), std_gaussian, 3, cutoff)
              for w in (6.0, 10.0, 16.0, 28.0)]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))


def test_truncation_bias_uniform_support_cutoff():
    model = inc.uniform(0.0, 1.0)
    config = cf.sample_rem(1.0, 0.0, 2000, (85,))
    # after tau steps nothing can advance more than tau, so deep intruders
    # need jumps beyond the support and the bound collapses to zero
    bound = dy.truncation_bias(cf.Configuration(config.positions, 6.0), model, tau=3,
                               cutoff=config.leader + 1.0)
    assert bound < 1e-8


def test_truncation_bias_infinite_window_needs_no_fit(std_gaussian):
    # nothing lies below an infinite window, even where no profile can be fitted
    for positions in ([0.0], [0.0, -1.0, -2.5]):
        config = cf.Configuration(positions, np.inf)
        assert dy.truncation_bias(config, std_gaussian, 1, cutoff=0.0) == 0.0


def test_truncation_bias_degenerate_fit(std_gaussian):
    single = cf.Configuration([0.0], 0.0)
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
    res = st.ks_two_sample(pre, post)
    assert res.statistic < res.critical[0.01]


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
    assert res.statistic < res.critical[0.01]
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
            config = cf.Configuration([0.0, -0.5], np.inf)
            trace = dy.evolve_many(config, std_gaussian, tau, (94, tau, r))
            if trace.final.positions[0] - trace.final.positions[1] > y:
                hits += 1
        exceed[tau] = hits / reps
    assert exceed[1] < exceed[10] < exceed[100]
