import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad
from scipy.optimize import brentq

from edgerace import increments as inc
from edgerace import laplace as lp
from edgerace import numerics

LEVELS = np.geomspace(1e-4, 1e4, 81)


@pytest.fixture(scope="module")
def std_gaussian():
    return inc.gaussian(0.0, 1.0)


@pytest.fixture(scope="module")
def unit_uniform():
    return inc.uniform(0.0, 1.0)


@pytest.fixture(scope="module")
def two_atom():
    return lp.measure([(1.0, 0.5), (2.0, 0.5)])


@pytest.fixture(scope="module")
def corpus(std_gaussian):
    return lp.random_corpus(100, (2024, 0))


def test_transform_values(two_atom):
    assert lp.transform(two_atom, math.log(2.0)) == pytest.approx(0.375, abs=1e-15)
    single = lp.point_mass(1.5, 1.0)
    for x in (-2.0, 0.0, 3.0):
        assert lp.transform(single, x) == pytest.approx(math.exp(-1.5 * x), rel=1e-14)
    assert lp.transform(two_atom, 0.0) == pytest.approx(two_atom.total_mass, abs=1e-15)


def test_shift_reweights(two_atom):
    shifted = lp.shift(two_atom, math.log(2.0))
    np.testing.assert_allclose(shifted.w, [0.25, 0.125], atol=1e-15)
    assert lp.shift(two_atom, 0.0).w == pytest.approx(two_atom.w)


def test_transform_shift_consistency(two_atom):
    for alpha in (-1.3, 0.4, 2.0):
        for x in (-0.5, 0.0, 1.7):
            lhs = lp.transform(lp.shift(two_atom, alpha), x)
            rhs = lp.transform(two_atom, x + alpha)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, rhs)


def test_normalize_single_atom():
    rho = lp.normalize(lp.point_mass(2.0, 4.0))
    assert rho.w[0] == pytest.approx(1.0, abs=1e-12)
    alpha = lp.normalizing_shift(lp.point_mass(2.0, 4.0))
    assert alpha == pytest.approx(math.log(4.0) / 2.0, abs=1e-12)


def test_normalize_idempotent(two_atom):
    once = lp.normalize(two_atom)
    assert abs(lp.normalizing_shift(once)) < 1e-12


def test_normalize_negative_shift_case():
    rho = lp.measure([(1.0, 0.2), (2.0, 0.2)])
    alpha = lp.normalizing_shift(rho)
    assert alpha < 0
    assert abs(lp.normalize(rho).total_mass - 1.0) < 1e-12


def test_normalize_degenerate_measures():
    with pytest.raises(ValueError):
        lp.normalize(lp.point_mass(0.0, 2.0))
    with pytest.raises(ValueError):
        lp.normalize(lp.measure([(0.0, 1.5), (1.0, 0.3)]))
    # exactly unit mass at u=0 is already normalized
    assert lp.normalizing_shift(lp.point_mass(0.0, 1.0)) == 0.0


def test_convolve_single_atom_gives_front_velocity(std_gaussian, unit_uniform):
    for model, s in ((std_gaussian, 1.0), (std_gaussian, 2.0), (unit_uniform, 1.0)):
        rho = lp.point_mass(s, 1.0)
        z, out = lp.convolution_shift(rho, model)
        assert z == pytest.approx(inc.front_velocity(model, s), abs=1e-10)
        assert out.w[0] == pytest.approx(1.0, abs=1e-10)


def test_convolve_two_atom_oracle(std_gaussian, two_atom):
    # independent root for z: 0.5 e^{1/2 - z} + 0.5 e^{2 - 2z} = 1
    z_oracle = brentq(lambda z: 0.5 * math.exp(0.5 - z) + 0.5 * math.exp(2 - 2 * z) - 1.0,
                      0.0, 5.0, xtol=1e-14)
    out = lp.convolve_g(two_atom, std_gaussian)
    assert lp.convolution_shift(two_atom, std_gaussian).z == pytest.approx(z_oracle, abs=1e-10)
    assert out.w[0] == pytest.approx(0.5 * math.exp(0.5 - z_oracle), abs=1e-10)
    assert out.w[0] < 0.5  # mass moves toward the larger decay rate


def test_convolve_requires_normalized(std_gaussian):
    with pytest.raises(ValueError):
        lp.convolve_g(lp.point_mass(1.0, 3.0), std_gaussian)


def test_convolve_log_multiplier_sign_structure(std_gaussian, corpus):
    # S(u) = Lambda(u) - z u is convex with S(0) = 0: negative then positive
    for rho in corpus[:20]:
        z = lp.convolution_shift(rho, std_gaussian).z
        s_vals = 0.5 * rho.u ** 2 - z * rho.u
        signs = np.sign(s_vals[np.abs(s_vals) > 1e-12])
        flips = np.count_nonzero(np.diff(signs) != 0)
        assert flips <= 1
        if flips == 1:
            assert signs[0] < 0 < signs[-1]


def test_concentration_inequality_on_corpus(std_gaussian, unit_uniform, corpus):
    # cumulative mass of the convolved measure never exceeds the original
    for model in (std_gaussian, unit_uniform):
        for rho in corpus:
            out = lp.convolve_g(rho, model)
            lhs = np.cumsum(out.w)
            rhs = np.cumsum(rho.w)
            assert np.all(lhs <= rhs + 1e-9)


def test_steeper_closed_forms():
    g = lp.exponential_intensity(2.0)
    f = lp.exponential_intensity(1.0)
    assert lp.steeper(g, f, LEVELS).holds
    res = lp.steeper(f, g, LEVELS)
    assert not res.holds and res.witness is not None


def test_steeper_reflexive_and_translates():
    f = lp.intensity_from_measure(lp.measure([(0.7, 0.4), (2.0, 0.6)]))
    shifted = lp.intensity_from_measure(f.rho, offset=1.3)
    assert lp.steeper(f, f, LEVELS).holds
    assert lp.steeper(f, shifted, LEVELS).holds
    assert lp.steeper(shifted, f, LEVELS).holds


def test_steeper_after_convolution_on_corpus(std_gaussian, unit_uniform, corpus):
    for model in (std_gaussian, unit_uniform):
        for rho in corpus[:40]:
            out = lp.convolve_g(rho, model)
            assert lp.steeper(out, rho, LEVELS).holds


def test_gap_functional_exponential_closed_form():
    for s in (0.5, 1.0, 2.0):
        f = lp.exponential_intensity(s, z=0.7)
        for u in (0.0, 0.5, 2.0):
            assert lp.gap_functional(f, u) == pytest.approx(math.exp(-s * u), rel=1e-12)


def test_gap_functional_translation_invariance(two_atom):
    a = lp.gap_functional(lp.intensity_from_measure(two_atom), 1.0)
    b = lp.gap_functional(lp.intensity_from_measure(two_atom, offset=2.5), 1.0)
    assert a == pytest.approx(b, abs=1e-10)


def test_gap_functional_equals_integral_over_exact_crossings(std_gaussian, corpus):
    # the quadrature runs over a bracket that contains [F^-1(40), F^-1(1e-13)];
    # what lies between the two ranges is below e^-40 and 1e-13
    for rho in corpus[:10] + [lp.convolve_g(rho, std_gaussian) for rho in corpus[10:15]]:
        f = lp.intensity_from_measure(rho, offset=0.6)
        x_lo, x_hi = f.inverse(np.array([40.0, lp.TAIL_BUDGET]))
        for u in (0.5, 3.0):
            def integrand(x: float) -> float:
                dens = float(np.dot(rho.w * rho.u, np.exp(-(x - 0.6) * rho.u)))
                return math.exp(-f.value(x - u)) * dens

            exact = quad(integrand, x_lo, x_hi, epsabs=1e-15, epsrel=1e-13, limit=400)[0]
            assert lp.gap_functional(f, u) == pytest.approx(exact, abs=1e-12)


def test_gap_functional_empirical_matches_laplace():
    xs = np.linspace(-6.0, 14.0, 400)
    emp = lp.intensity_table(xs, np.exp(-xs))
    assert lp.gap_functional(emp, 0.8) == pytest.approx(math.exp(-0.8), abs=1e-6)


def test_gap_functional_strict_decrease_multi_atom(std_gaussian, corpus):
    for rho in corpus[:25]:
        out = lp.convolve_g(rho, std_gaussian)
        for u in (0.5, 1.5, 3.0):
            before = lp.gap_functional(rho, u)
            after = lp.gap_functional(out, u)
            assert after < before - 1e-9


def test_gap_functional_equality_single_atom(std_gaussian):
    rho = lp.point_mass(1.3, 1.0)
    out = lp.convolve_g(rho, std_gaussian)
    for u in (0.5, 2.0):
        assert abs(lp.gap_functional(out, u) - lp.gap_functional(rho, u)) <= 1e-9


def test_level_functional_substitution_oracle():
    # shape w e^{-w} against a pure exponential integrates to one
    w = np.geomspace(1e-6, 40.0, 4001)
    vals = w * np.exp(-w)
    vals[0] = vals[-1] = 0.0
    f = lp.exponential_intensity(1.0)
    assert lp.level_functional(f, w, vals) == pytest.approx(1.0, abs=2e-3)


def test_level_functional_zero_shape():
    w = np.linspace(0.0, 5.0, 11)
    assert lp.level_functional(lp.exponential_intensity(1.0), w, np.zeros(11)) == 0.0


def test_level_functional_translation_invariance(two_atom):
    w = np.linspace(0.0, 4.0, 201)
    vals = np.maximum(0.0, 1.0 - np.abs(w - 1.5))
    vals[0] = vals[-1] = 0.0
    a = lp.level_functional(lp.intensity_from_measure(two_atom), w, vals)
    b = lp.level_functional(lp.intensity_from_measure(two_atom, offset=-1.1), w, vals)
    assert a == pytest.approx(b, abs=1e-9)


def test_level_functional_requires_vanishing_shape():
    w = np.linspace(0.1, 5.0, 11)
    with pytest.raises(ValueError):
        lp.level_functional(lp.exponential_intensity(1.0), w, np.ones(11))


def test_level_functional_decreases_under_convolution(std_gaussian, corpus):
    w = np.linspace(0.0, 6.0, 301)
    shapes = [np.maximum(0.0, 1.0 - np.abs(w - c) / 0.8) for c in (1.0, 2.5)]
    for vals in shapes:
        vals[0] = vals[-1] = 0.0
    for rho in corpus[:15]:
        out = lp.convolve_g(rho, std_gaussian)
        for vals in shapes:
            a = lp.level_functional(out, w, vals)
            b = lp.level_functional(rho, w, vals)
            assert a <= b + 1e-8


def test_expected_gap_closed_form():
    for s in (0.5, 1.0, 2.0):
        f = lp.exponential_intensity(s)
        for n in (1, 2, 5, 10):
            assert lp.expected_gap(f, n) == pytest.approx(1.0 / (n * s), rel=1e-8)


def test_expected_gap_contracts_under_convolution(std_gaussian, corpus):
    for rho in corpus[:10]:
        out = lp.convolve_g(rho, std_gaussian)
        for n in (1, 3):
            assert lp.expected_gap(out, n) <= lp.expected_gap(rho, n) + 1e-9


def test_contraction_drives_out_the_small_atom(std_gaussian, two_atom):
    # independent oracle: scalar recursion on the two weights with its own
    # bisection for the normalizing shift, using closed-form cumulants
    lam1, lam2 = 0.5, 2.0

    def oracle_iterations(threshold=1e-3):
        w1 = w2 = 0.5
        for it in range(1, 200):
            lo, hi = 0.0, 20.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                val = w1 * math.exp(lam1 - mid) + w2 * math.exp(lam2 - 2 * mid)
                if val > 1.0:
                    lo = mid
                else:
                    hi = mid
            z = 0.5 * (lo + hi)
            w1 *= math.exp(lam1 - z)
            w2 *= math.exp(lam2 - 2 * z)
            if w1 < threshold:
                return it
        raise AssertionError("oracle did not collapse")

    expected = oracle_iterations()
    rho = two_atom
    for it in range(1, 200):
        rho = lp.convolve_g(rho, std_gaussian)
        if rho.w[0] < 1e-3:
            break
    assert abs(it - expected) <= 1


def test_intensity_inverse_round_trip(two_atom):
    f = lp.intensity_from_measure(two_atom, offset=0.3)
    for t in (0.05, 0.4, 3.0, 50.0):
        x = f.inverse(t)
        assert f.value(x) == pytest.approx(t, rel=1e-9)


def _many_atoms(n: int, seed: int) -> lp.LaplaceMeasure:
    rng = np.random.default_rng(seed)
    u = np.sort(rng.uniform(0.05, 4.0, size=n))
    return lp.LaplaceMeasure(u, np.exp(rng.uniform(-3.0, 3.0, size=n)) / n)


def test_intensity_inverse_newton_path():
    f = lp.intensity_from_measure(_many_atoms(2000, 31), offset=-0.7)
    ts = np.geomspace(1e-4, 1e4, 700)
    xs = f.inverse(ts)
    np.testing.assert_allclose(f.value(xs), ts, rtol=1e-9, atol=0)
    # a one-level call seeds Newton from its own bracket and lands on the same crossing
    for i in range(0, ts.size, 37):
        assert xs[i] == pytest.approx(f.inverse(float(ts[i])), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_intensity_inverse_hits_the_level(data):
    n = data.draw(hst.integers(1, 6))
    u = data.draw(hst.lists(hst.floats(0.05, 4.0), min_size=n, max_size=n, unique=True))
    w = data.draw(hst.lists(hst.floats(1e-3, 1e3), min_size=n, max_size=n))
    offset = data.draw(hst.floats(-5.0, 5.0))
    ts = np.array(data.draw(hst.lists(hst.floats(1e-6, 1e6), min_size=1, max_size=8)))
    f = lp.intensity_from_measure(lp.measure(zip(u, w)), offset=offset)
    np.testing.assert_allclose(f.value(f.inverse(ts)), ts, rtol=1e-10, atol=0)


@settings(max_examples=200, deadline=None)
@given(hst.data())
def test_intensity_bracket_holds_the_crossing(data):
    n = data.draw(hst.integers(2, 6))
    u = data.draw(hst.lists(hst.floats(0.05, 4.0), min_size=n, max_size=n, unique=True))
    w = data.draw(hst.lists(hst.floats(1e-3, 1e3), min_size=n, max_size=n))
    rho = lp.measure(zip(u, w))
    # levels below the total mass R(0) cross at x > 0, levels above it at x < 0
    below = data.draw(hst.lists(hst.floats(1e-6, 1.0, exclude_max=True), min_size=1, max_size=4))
    above = data.draw(hst.lists(hst.floats(1.0, 1e6, exclude_min=True), min_size=1, max_size=4))
    logt = np.log(rho.total_mass * np.array(below + above))
    lo, hi = lp.intensity_from_measure(rho)._bracket(logt)
    assert np.all(lo <= hi)
    # lo and hi come back through log w - x u, so rounding scales with the logs
    ulps = 4 * np.finfo(float).eps * (1.0 + np.abs(logt) + np.abs(rho.log_w).max())
    assert np.all(lp.log_transform(rho, lo) >= logt - ulps)
    assert np.all(lp.log_transform(rho, hi) <= logt + ulps)


def test_intensity_bracket_rejects_an_atom_at_zero():
    f = lp.intensity_from_measure(lp.measure([(0.0, 0.3), (1.0, 0.7)]))
    with pytest.raises(ValueError, match="u > 0"):
        f.inverse(0.5)
    with pytest.raises(ValueError, match="u > 0"):
        lp.gap_functional(f, 1.0)


def test_intensity_inverse_independent_of_blocks(monkeypatch):
    f = lp.intensity_from_measure(_many_atoms(40, 32), offset=0.4)
    ts = np.geomspace(1e-9, 1e9, 301)
    default = f.inverse(ts)
    # Newton stops block by block, so a level may take one more step in
    # another block size and move by a rounding error, never more
    for cells in (1, 7 * f.rho.n_atoms, f.rho.n_atoms * ts.size):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", cells)
        np.testing.assert_allclose(f.inverse(ts), default, rtol=1e-14, atol=0)


def test_intensity_inverse_memory_is_flat():
    # one (level, atom) array of 400 levels on 10^4 atoms takes 32 MB
    f = lp.intensity_from_measure(_many_atoms(10_000, 33))
    ts = np.cumsum(np.random.default_rng(34).exponential(size=(200, 2)), axis=1).ravel()
    f.inverse(ts)
    tracemalloc.start()
    try:
        f.inverse(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_intensity_normalized(two_atom):
    f = lp.intensity_from_measure(two_atom, offset=1.2).normalized()
    assert f.value(0.0) == pytest.approx(1.0, abs=1e-12)
    xs = np.linspace(-4, 10, 300)
    emp = lp.intensity_table(xs, 2.0 * np.exp(-0.7 * xs)).normalized()
    assert emp.value(0.0) == pytest.approx(1.0, abs=1e-12)


def test_empirical_intensity_interpolation():
    xs = np.linspace(-3.0, 9.0, 50)
    f = lp.intensity_table(xs, np.exp(-1.3 * xs))
    assert f.value(2.17) == pytest.approx(math.exp(-1.3 * 2.17), rel=1e-10)
    assert f.inverse(0.01) == pytest.approx(-math.log(0.01) / 1.3, rel=1e-10)
    # log-linear extrapolation continues the edge slopes
    assert f.value(12.0) == pytest.approx(math.exp(-1.3 * 12.0), rel=1e-9)


def test_corpus_properties(corpus):
    assert len(corpus) == 100
    for rho in corpus:
        assert 2 <= rho.n_atoms <= 6
        assert abs(rho.total_mass - 1.0) < 1e-9
        assert rho.w.min() >= 1e-3
