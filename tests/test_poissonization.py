import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays
from scipy.stats import norm

from edgerace import configurations as cf
from edgerace import increments as inc
from edgerace import laplace as lp
from edgerace import numerics
from edgerace import poissonization as pz
from edgerace import stats as st
from edgerace.streams import generator, substream


@pytest.fixture(scope="module")
def std_gaussian():
    return inc.gaussian(0.0, 1.0)


@pytest.fixture(scope="module")
def rem_config():
    return cf.sample_rem(1.0, 0.0, 10_000, (700,))


def test_expected_count_single_particle(std_gaussian):
    config = cf.Configuration([0.0], np.inf)
    for tau, x in ((1, 1.0), (4, 3.0)):
        expected = float(norm.sf(x / math.sqrt(tau)))
        got = pz.expected_count_above(config, std_gaussian, tau, x)
        assert got == pytest.approx(expected, rel=1e-12)


def test_expected_count_two_particles(std_gaussian):
    config = cf.Configuration([0.0, -1.0], np.inf)
    got = pz.expected_count_above(config, std_gaussian, 1, 1.0)
    assert got == pytest.approx(0.18140538587963628, rel=1e-12)


def test_expected_count_one_step_values(std_gaussian):
    single = cf.Configuration([0.0], np.inf)
    assert pz.expected_count_above(single, std_gaussian, 1, 0.0) == pytest.approx(0.5, abs=1e-12)
    pair = cf.Configuration([0.0, -1.0], np.inf)
    expected = float(norm.sf(1.0) + norm.sf(2.0))
    assert pz.expected_count_above(pair, std_gaussian, 1, 1.0) == pytest.approx(expected,
                                                                               rel=1e-12)
    vals = pz.expected_count_above(pair, std_gaussian, 1, np.linspace(0, 8, 17))
    assert np.all(np.diff(vals) <= 0)
    assert vals[-1] < 1e-8


COUNT_MODELS = (inc.gaussian(0.0, 1.0), inc.gaussian(0.5, 0.25),
                inc.uniform(0.0, 1.0, grid_points=101))


@settings(max_examples=25, deadline=None)
@given(hst.data())
def test_expected_count_array_equals_scalar_calls(data):
    model = data.draw(hst.sampled_from(COUNT_MODELS))
    tau = data.draw(hst.integers(1, 40))
    particles = data.draw(hst.integers(1, 30))
    config = cf.sample_rem(1.0, 0.0, particles, (709, particles))
    sd = math.sqrt(tau * model.variance)
    centre = config.leader + tau * model.mean
    xs = data.draw(arrays(np.float64, hst.integers(1, 6),
                          elements=hst.floats(centre - 8.0 * sd, centre + 12.0 * sd)))
    got = pz.expected_count_above(config, model, tau, xs)
    singles = [pz.expected_count_above(config, model, tau, float(x)) for x in xs]
    assert all(type(v) is float for v in singles)
    assert got.shape == xs.shape
    assert got.tobytes() == np.array(singles).tobytes()


def test_expected_count_mc_backend_validates_curve(std_gaussian):
    # every summand re-estimated under its own tilt, one substream per particle
    config = cf.Configuration([0.0, -0.7, -1.9], np.inf)
    exact = pz.expected_count_above(config, std_gaussian, 4, 3.0)
    mc = sum(inc.sum_tail(std_gaussian, 4, 3.0 - pos, mc_samples=200_000,
                          mc_stream=(71, i)).value
             for i, pos in enumerate(config.positions))
    assert mc == pytest.approx(exact, rel=0.02)


def test_expected_count_monotone(std_gaussian, rem_config):
    vals = [pz.expected_count_above(rem_config, std_gaussian, 4, x)
            for x in np.linspace(0.0, 12.0, 25)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_z_front_single_particle_has_no_crossing(std_gaussian):
    with pytest.raises(ValueError):
        pz.z_front(cf.Configuration([0.0], np.inf), std_gaussian, 5)


def test_z_front_without_upper_crossing_is_an_error(std_gaussian, monkeypatch):
    # with every particle's tail stuck at one the expected count never drops
    # below one, so no bracket holds the crossing
    monkeypatch.setattr(pz, "tail_curve", lambda model, tau: lambda d: np.ones_like(d))
    with pytest.raises(ValueError, match="never drops below one"):
        pz.z_front(cf.Configuration([0.0, -1.0, -2.0], np.inf), std_gaussian, 1)


def test_z_front_rem_band(std_gaussian, rem_config):
    z = pz.z_front(rem_config, std_gaussian, 10)
    assert 0.0 <= z <= 10.0


def test_z_front_bounded_by_double_rate_moment(std_gaussian, rem_config):
    # the front prediction stays below tau times the half of the log moment
    # at twice the occupancy rate, up to a constant
    from edgerace.dynamics import _fit_occupancy
    from edgerace.increments import cumulant

    _, lam = _fit_occupancy(rem_config)
    s_val = cumulant(std_gaussian, 2.0 * lam).value
    for tau in (4, 10, 20):
        z = pz.z_front(rem_config, std_gaussian, tau)
        assert z <= (s_val / (2.0 * lam)) * tau + 5.0


def test_z_front_shift_equivariance(std_gaussian, rem_config):
    z = pz.z_front(rem_config, std_gaussian, 6)
    shifted = cf.Configuration(rem_config.positions + 2.5, rem_config.window_depth)
    assert pz.z_front(shifted, std_gaussian, 6) == pytest.approx(z + 2.5, abs=2e-8)


def test_leader_laws_single_particle_poissonization_fails(std_gaussian):
    config = cf.Configuration([0.0], np.inf)
    grid = np.linspace(-6.0, 6.0, 801)
    exact, surrogate = pz.leader_laws(config, std_gaussian, 1, grid=grid)
    assert float(np.abs(exact.cdf - surrogate.cdf).max()) > 0.3


def test_leader_laws_dominance(std_gaussian, rem_config):
    exact, surrogate = pz.leader_laws(rem_config, std_gaussian, 8)
    assert np.all(exact.cdf <= surrogate.cdf + 1e-12)


def test_leader_laws_rem_close_at_tau_8(std_gaussian, rem_config):
    exact, surrogate = pz.leader_laws(rem_config, std_gaussian, 8)
    assert float(np.abs(exact.cdf - surrogate.cdf).max()) <= 0.05


def test_leader_laws_narrow_grid_rejected(std_gaussian, rem_config):
    grid = np.linspace(3.9, 4.1, 101)
    with pytest.raises(ValueError):
        pz.leader_laws(rem_config, std_gaussian, 8, grid=grid)


def test_law_distance_identical_and_point_masses():
    grid = np.array([0.0, 1.0])
    p = pz.LeaderLaw(grid, np.array([1.0, 1.0]))
    q = pz.LeaderLaw(grid, np.array([0.0, 1.0]))
    assert pz.law_distance(p, p) == 0.0
    assert pz.law_distance(p, q) == pytest.approx(2.0)
    other = pz.LeaderLaw(grid + 1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        pz.law_distance(p, other)


def test_law_distance_shrinks_with_tau(std_gaussian):
    d1, d32 = [], []
    for seed in range(6):
        config = cf.sample_rem(1.0, 0.0, 10_000, (704, seed))
        for tau, acc in ((1, d1), (32, d32)):
            exact, surrogate = pz.leader_laws(config, std_gaussian, tau)
            acc.append(pz.law_distance(exact, surrogate))
    assert np.median(d1) >= 2.0 * np.median(d32)


def test_extraction_mass_and_concentration(std_gaussian, rem_config):
    ext = pz.extract_laplace(rem_config, std_gaussian, 20)
    assert 0.9 <= ext.total_weight <= 1.0 + 1e-9
    assert abs(ext.measure.total_mass - ext.total_weight) < 1e-9
    rho = ext.measure
    u_mean = float(np.dot(rho.u, rho.w) / rho.w.sum())
    # the mass center sits below the sampler rate because the window cannot
    # hold the full mass peak at this horizon; the histogram peak is already
    # at the rate (frozen from seeded runs at this depth)
    assert 0.70 <= u_mean <= 0.80
    hist, edges = np.histogram(rho.u, bins=np.arange(0.0, 2.0, 0.05), weights=rho.w)
    mode = 0.5 * (edges[np.argmax(hist)] + edges[np.argmax(hist) + 1])
    assert 0.8 <= mode <= 1.0


def test_extraction_transform_consistency(std_gaussian, rem_config):
    # the transform reproduces the normalized expected-count tail, with an
    # error that shrinks as the horizon grows; the far positive side converges
    # from above and is the slowest direction
    errs = {}
    for tau in (8, 16, 32):
        ext = pz.extract_laplace(rem_config, std_gaussian, tau)
        for x in (-3.0, -1.0, 1.0):
            r = lp.transform(ext.measure, x)
            f = pz.expected_count_above(rem_config, std_gaussian, tau, ext.z + x)
            errs[(tau, x)] = abs(r - f) / f
    for x in (-3.0, -1.0, 1.0):
        assert errs[(8, x)] > errs[(16, x)] > errs[(32, x)]
    assert errs[(32, -3.0)] <= 0.05
    assert errs[(32, -1.0)] <= 0.05
    assert errs[(32, 1.0)] <= 0.10


def test_extraction_atoms_sorted_and_positive(std_gaussian, rem_config):
    ext = pz.extract_laplace(rem_config, std_gaussian, 12)
    assert np.all(np.diff(ext.measure.u) > 0)
    assert np.all(ext.measure.w > 0)
    assert ext.n_dropped >= 0


def test_extraction_merges_coinciding_atoms(std_gaussian):
    # particles at identical positions produce identical atoms, merged by
    # weight addition
    config = cf.Configuration([0.0, -1.0, -1.0, -1.0, -2.5], np.inf)
    ext = pz.extract_laplace(config, std_gaussian, 6)
    assert ext.measure.n_atoms == 3
    assert ext.total_weight == pytest.approx(ext.measure.total_mass, abs=1e-12)
    qs = (ext.z - np.array([0.0, -1.0, -2.5])) / 6.0
    curve = pz.tail_curve(std_gaussian, 6)
    expected_w1 = 3.0 * curve(np.array([ext.z + 1.0]))[0]
    assert ext.measure.w[1] == pytest.approx(expected_w1, rel=1e-12)
    np.testing.assert_allclose(ext.measure.u, qs, rtol=1e-12)


def test_extraction_drops_unattainable_particles_on_bounded_support():
    # on uniform(0, 1) particles far behind the front cannot keep up in tau
    # steps: they are dropped and counted instead of failing the extraction
    model, tau = inc.uniform(0.0, 1.0), 4
    config = cf.Configuration(cf.sample_rem(1.0, 0.0, 200, (611, 0, 0)).positions, np.inf)
    ext = pz.extract_laplace(config, model, tau)
    qs = (ext.z - config.positions) / tau
    attainable = int(np.count_nonzero(qs < model.q_max))
    assert 0 < attainable < config.size
    assert ext.n_dropped >= config.size - attainable
    kept = config.size - ext.n_dropped
    # the kept atoms are a prefix, with the bits of a build on the prefix alone
    w = pz.tail_curve(model, tau)(ext.z - config.positions[:kept])
    assert ext.total_weight == float(w.sum())
    assert ext.total_weight == pytest.approx(1.0, abs=0.01)
    assert np.all(np.diff(ext.measure.u) > 0) and ext.measure.u[-1] <= model.lambda_hi


def test_extraction_rejects_a_leader_ahead_of_the_front(std_gaussian):
    # the leader's demand (z - x1)/tau lies below the untilted mean, where no
    # positive tilt represents it
    config = cf.Configuration([3.0, 0.0, -0.5], np.inf)
    assert pz.z_front(config, std_gaussian, 1) < config.leader
    with pytest.raises(ValueError, match="tilt out of range"):
        pz.extract_laplace(config, std_gaussian, 1)


def test_extraction_round_trip_first_gap(std_gaussian):
    # resampling the extracted intensity reproduces the directly evolved
    # first-gap law of the same finite configuration
    tau, reps = 16, 600
    base = cf.sample_rem(1.0, 0.0, 10_000, (705,))
    omega = cf.Configuration(base.positions, np.inf)
    ext = pz.extract_laplace(omega, std_gaussian, tau)

    rng = generator((706,))
    arrivals = np.cumsum(rng.exponential(size=(reps, 2)), axis=1)
    points = lp.TailIntensity(ext.measure).inverse(arrivals) + ext.z
    gap_resampled = points[:, 0] - points[:, 1]

    gap_evolved = np.empty(reps)
    for r in range(reps):
        rr = generator((707, r))
        walk = omega.positions + rr.normal(size=(tau, omega.size)).sum(axis=0)
        two = np.partition(walk, walk.size - 2)[-2:]
        gap_evolved[r] = two.max() - two.min()

    res = st.ks_two_sample(gap_resampled, gap_evolved)
    assert res.statistic < res.critical[0.01]


def test_tail_curve_blend_uniform_sane():
    model = inc.uniform(0.0, 1.0)
    curve = pz.tail_curve(model, 16)
    ys = np.linspace(-2.0, 18.0, 400)
    vals = curve(ys)
    assert np.all(np.diff(vals) <= 1e-12)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert curve(np.array([17.0]))[0] == 0.0  # beyond the supported maximum
    rng = np.random.default_rng(11)
    sums = rng.uniform(0, 1, size=(300_000, 16)).sum(axis=1)
    for y in (9.0, 10.0):
        mc = float((sums >= y).mean())
        assert curve(np.array([y]))[0] == pytest.approx(mc, rel=0.15)


# blocked sums over particles against one full-grid array: (model, particles,
# rows per block), None keeping the package's block size; the uniform model
# uses a coarse quadrature grid and few rows, since its curve expands every
# cell over that grid
BLOCK_CASES = [("gaussian", 10_000, None), ("gaussian", 700, 5), ("uniform", 40, 3)]


def _block_case(kind, particles, rows, monkeypatch):
    model = inc.gaussian(0.0, 1.0) if kind == "gaussian" else inc.uniform(0.0, 1.0,
                                                                         grid_points=101)
    config = cf.sample_rem(1.0, 0.0, 10_000, (708, particles))
    config = cf.Configuration(config.positions[:particles], config.window_depth)
    assert config.size == particles
    if rows is not None:
        monkeypatch.setattr(numerics, "BLOCK_CELLS", rows * particles)
    return model, config, numerics.BLOCK_CELLS // particles


def _unblocked_tails(config, model, tau, xs):
    return pz.tail_curve(model, tau)(xs[:, None] - config.positions[None, :])


def _unblocked_laws(config, model, tau, grid):
    """Exact and surrogate CDFs from one full (grid, particle) array, every row summed."""
    p = np.clip(_unblocked_tails(config, model, tau, grid), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        exact = np.exp(np.log1p(-p).sum(axis=1))
    return exact, np.exp(-p.sum(axis=1))


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocked_counts_equal_unblocked(case, monkeypatch):
    model, config, block = _block_case(*case, monkeypatch)
    tau = 4
    z = pz.z_front(config, model, tau)
    for n in (1, block + 1, 2 * block + 3):
        xs = np.linspace(z - 3.0, z + 3.0, n)
        reference = _unblocked_tails(config, model, tau, xs).sum(axis=1)
        counts = pz._count_curve(config, model, tau)(xs)
        assert counts.tobytes() == reference.tobytes()
        singles = [pz.expected_count_above(config, model, tau, x) for x in xs]
        assert np.array(singles).tobytes() == reference.tobytes()


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocked_leader_laws_equal_unblocked(case, monkeypatch):
    model, config, block = _block_case(*case, monkeypatch)
    tau = 4
    z = pz.z_front(config, model, tau)
    half = 10.0 * math.sqrt(tau * model.variance)
    for n in (block + 1, 2 * block + 3, 2001):
        grid = np.linspace(z - half, z + half, n)
        exact, surrogate = _unblocked_laws(config, model, tau, grid)
        got_exact, got_surrogate = pz.leader_laws(config, model, tau, grid=grid)
        assert got_exact.cdf.tobytes() == exact.tobytes()
        assert got_surrogate.cdf.tobytes() == surrogate.tobytes()


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocked_z_front_equals_unblocked(case, monkeypatch):
    model, config, _ = _block_case(*case, monkeypatch)
    blocked = pz.z_front(config, model, 4)

    def unblocked_counts(config, model, tau):
        return lambda xs: _unblocked_tails(config, model, tau, np.atleast_1d(xs)).sum(axis=1)

    monkeypatch.setattr(pz, "_count_curve", unblocked_counts)
    assert pz.z_front(config, model, 4) == blocked


def test_leader_laws_memory_is_flat(std_gaussian, rem_config):
    # one full (grid, particle) array would take 2001 * 10^4 * 8 bytes = 160 MB
    assert rem_config.size >= 10_000
    pz.leader_laws(rem_config, std_gaussian, 8)
    tracemalloc.start()
    try:
        pz.leader_laws(rem_config, std_gaussian, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# (particles, tau, grid rows, levels below and above the front in tau-step
# standard deviations, rows per block); small blocks stop a walk close to
# where the laws saturate.  The examples put the middle row where both laws
# are already exactly 0.0, or exactly 1.0, so a walk stops after one block.
@settings(max_examples=30, deadline=None)
@given(particles=hst.integers(1000, 3000), tau=hst.integers(1, 32),
       rows=hst.integers(1, 600), below=hst.floats(0.5, 80.0), above=hst.floats(0.5, 80.0),
       block=hst.integers(1, 64))
@example(particles=3000, tau=1, rows=401, below=80.0, above=6.0, block=8)
@example(particles=3000, tau=32, rows=400, below=8.0, above=80.0, block=8)
@example(particles=1000, tau=4, rows=2, below=10.0, above=10.0, block=1)
def test_leader_laws_skip_equals_every_row(particles, tau, rows, below, above, block):
    config = cf.sample_rem(1.0, 0.0, particles, (712, particles))
    _assert_laws_equal_every_row(inc.gaussian(0.0, 1.0), config, tau, rows, below, above,
                                 block)


@settings(max_examples=15, deadline=None)
@given(tau=hst.integers(1, 32), rows=hst.integers(1, 300),
       below=hst.floats(0.5, 20.0), above=hst.floats(0.5, 20.0), block=hst.integers(1, 64))
def test_leader_laws_skip_equals_every_row_uniform(tau, rows, below, above, block):
    config = cf.sample_rem(1.0, 0.0, 40, (713,))
    _assert_laws_equal_every_row(inc.uniform(0.0, 1.0, grid_points=101), config, tau, rows,
                                 below, above, block)


def _assert_laws_equal_every_row(model, config, tau, rows, below, above, block):
    sd = math.sqrt(tau * model.variance)
    z = pz.z_front(config, model, tau)
    grid = np.linspace(z - below * sd, z + above * sd, rows)
    exact, surrogate = _unblocked_laws(config, model, tau, grid)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "BLOCK_CELLS", block * config.size)
        if exact[0] > 1e-6 or exact[-1] < 1 - 1e-6 or surrogate[-1] < 1 - 1e-6:
            with pytest.raises(ValueError, match="grid too narrow"):
                pz.leader_laws(config, model, tau, grid=grid)
            return
        got_exact, got_surrogate = pz.leader_laws(config, model, tau, grid=grid)
    assert got_exact.cdf.tobytes() == exact.tobytes()
    assert got_surrogate.cdf.tobytes() == surrogate.tobytes()


def test_leader_laws_skip_saturated_cells(std_gaussian, rem_config, monkeypatch):
    # at tau 32 most of the default grid is saturated on one side or the other
    tau = 32
    z = pz.z_front(rem_config, std_gaussian, tau)
    half = 10.0 * math.sqrt(tau)
    grid = np.linspace(z - half, z + half, pz.LEADER_GRID_POINTS)
    seen = []
    curve = pz.tail_curve

    def counted_tail_curve(model, tau):
        inner = curve(model, tau)

        def counted(y):
            seen.append(np.size(y))
            return inner(y)
        return counted

    monkeypatch.setattr(pz, "tail_curve", counted_tail_curve)
    pz.leader_laws(rem_config, std_gaussian, tau, grid=grid)
    assert sum(seen) < 0.6 * grid.size * rem_config.size


def test_leader_laws_unsorted_grid_rejected(std_gaussian, rem_config):
    unsorted = np.linspace(-10.0, 20.0, 201)
    unsorted[[50, 51]] = unsorted[[51, 50]]
    for grid in (unsorted, np.array([]), unsorted.reshape(3, 67)):
        with pytest.raises(ValueError, match="nondecreasing 1-d"):
            pz.leader_laws(rem_config, std_gaussian, 8, grid=grid)
