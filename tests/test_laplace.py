import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    return lp.random_corpus(100, (2024, 0), std_gaussian.lambda_hi)


@hst.composite
def measures(draw):
    """1-6 atoms at u > 0."""
    n = draw(hst.integers(1, 6))
    u = draw(hst.lists(hst.floats(0.1, 4.0), min_size=n, max_size=n, unique=True))
    w = draw(hst.lists(hst.floats(1e-2, 1e2), min_size=n, max_size=n))
    return lp.measure(zip(u, w))


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, math.nan, math.inf])
def test_measure_rejects_an_atom_off_the_positive_axis(bad):
    # an atom at u = 0 never decays; one error at construction, alone or not
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the test
        for atoms in ([(bad, 0.5)], [(bad, 0.5), (1.0, 0.5)]):
            with pytest.raises(ValueError, match="positive and finite"):
                lp.measure(atoms)


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


@settings(max_examples=200, deadline=None)
@given(measures(), hst.floats(-5.0, 5.0), hst.floats(-5.0, 5.0))
@example(lp.measure([(1.0, 0.5), (2.0, 0.5)]), -1.3, 1.7)
@example(lp.measure([(1.0, 0.5), (2.0, 0.5)]), 0.4, 0.0)
@example(lp.measure([(1.0, 0.5), (2.0, 0.5)]), 2.0, -0.5)
def test_transform_shift_consistency(rho, alpha, x):
    lhs = lp.transform(lp.shift(rho, alpha), x)
    rhs = lp.transform(rho, x + alpha)
    # both sides round log w - (x + alpha) u, each term in its own order
    ulps = 8 * np.finfo(float).eps * (
        1.0 + np.max(np.abs(rho.log_w) + (abs(x) + abs(alpha)) * rho.u))
    assert abs(lhs - rhs) <= ulps * rhs


def test_normalize_single_atom():
    rho = lp.normalize(lp.point_mass(2.0, 4.0))
    assert rho.w[0] == pytest.approx(1.0, abs=1e-12)
    # the normalizing shift is the level-one crossing, log(4) / 2
    alpha = lp.TailIntensity(lp.point_mass(2.0, 4.0)).inverse(1.0)
    assert alpha == pytest.approx(math.log(4.0) / 2.0, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(measures())
@example(lp.measure([(1.0, 0.5), (2.0, 0.5)]))
def test_normalize_idempotent(rho):
    once = lp.normalize(rho)
    assert abs(once.total_mass - 1.0) <= lp.NORMALIZE_TOL
    assert abs(lp.TailIntensity(once).inverse(1.0)) < 1e-12


def test_normalize_negative_shift_case():
    rho = lp.measure([(1.0, 0.2), (2.0, 0.2)])
    out = lp.normalize(rho)
    assert lp.TailIntensity(rho).inverse(1.0) < 0
    assert np.all(out.w > rho.w)  # a negative shift raises every weight
    assert abs(out.total_mass - 1.0) < 1e-12


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


def test_convolve_rejects_an_atom_beyond_lambda_hi():
    # gaussian(0, 4) has lambda_hi 2.75; log_mgf names the range
    with pytest.raises(ValueError, match="lambda_hi"):
        lp.convolve_g(lp.measure([(1.0, 0.5), (3.0, 0.5)]), inc.gaussian(0.0, 4.0))


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
    g = lp.point_mass(2.0)
    f = lp.point_mass(1.0)
    assert lp.steeper(g, f, LEVELS) is True
    assert lp.steeper(f, g, LEVELS) is False


@settings(max_examples=100, deadline=None)
@given(measures(), hst.floats(-5.0, 5.0))
@example(lp.measure([(0.7, 0.4), (2.0, 0.6)]), 1.3)
def test_steeper_reflexive_and_translates(rho, offset):
    shifted = lp.shift(rho, offset)
    assert lp.steeper(rho, rho, LEVELS)
    assert lp.steeper(rho, shifted, LEVELS)
    assert lp.steeper(shifted, rho, LEVELS)


def test_steeper_after_convolution_on_corpus(std_gaussian, unit_uniform, corpus):
    for model in (std_gaussian, unit_uniform):
        for rho in corpus[:40]:
            out = lp.convolve_g(rho, model)
            assert lp.steeper(out, rho, LEVELS)


def test_gap_functional_exponential_closed_form():
    for s in (0.5, 1.0, 2.0):
        rho = lp.shift(lp.point_mass(s), -0.7)
        for u in (0.0, 0.5, 2.0):
            assert lp.gap_functional(rho, u) == pytest.approx(math.exp(-s * u), rel=1e-12)


def test_gap_functional_translation_invariance(two_atom):
    a = lp.gap_functional(two_atom, 1.0)
    b = lp.gap_functional(lp.shift(two_atom, 2.5), 1.0)
    assert a == pytest.approx(b, abs=1e-10)


def test_gap_functional_equals_integral_over_exact_crossings(std_gaussian, corpus):
    # the quadrature runs over a bracket that contains [R^-1(40), R^-1(1e-13)];
    # what lies between the two ranges is below e^-40 and 1e-13.  One atom
    # takes the closed form e^{-u_1 u}, which the same integral checks; the
    # convolved point mass is criterion 8's single-atom case
    singles = [lp.point_mass(0.3), lp.point_mass(1.3), lp.point_mass(3.0, 0.2),
               lp.convolve_g(lp.point_mass(1.3), std_gaussian)]
    for rho in (corpus[:10] + [lp.convolve_g(rho, std_gaussian) for rho in corpus[10:15]]
                + singles):
        x_lo, x_hi = lp.TailIntensity(rho).inverse(np.array([40.0, lp.TAIL_BUDGET]))
        for u in (0.5, 3.0):
            def integrand(x: float) -> float:
                dens = float(np.dot(rho.w * rho.u, np.exp(-x * rho.u)))
                return math.exp(-lp.transform(rho, x - u)) * dens

            exact = quad(integrand, x_lo, x_hi, epsabs=1e-15, epsrel=1e-13, limit=400)[0]
            assert lp.gap_functional(rho, u) == pytest.approx(exact, abs=1e-12)


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


def test_expected_gap_closed_form():
    for s in (0.5, 1.0, 2.0):
        rho = lp.point_mass(s)
        for n in (1, 2, 5, 10):
            assert lp.expected_gap(rho, n) == pytest.approx(1.0 / (n * s), rel=1e-8)


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
    f = lp.TailIntensity(two_atom)
    for t in (0.05, 0.4, 3.0, 50.0):
        x = f.inverse(t)
        assert lp.transform(f.rho, x) == pytest.approx(t, rel=1e-9)


def _many_atoms(n: int, seed: int) -> lp.LaplaceMeasure:
    rng = np.random.default_rng(seed)
    u = np.sort(rng.uniform(0.05, 4.0, size=n))
    return lp.LaplaceMeasure(u, np.exp(rng.uniform(-3.0, 3.0, size=n)) / n)


def test_intensity_inverse_newton_path():
    f = lp.TailIntensity(_many_atoms(2000, 31))
    ts = np.geomspace(1e-4, 1e4, 700)
    xs = f.inverse(ts)
    np.testing.assert_allclose(lp.transform(f.rho, xs), ts, rtol=1e-9, atol=0)
    # a one-level call seeds Newton from its own bracket and lands on the same crossing
    for i in range(0, ts.size, 37):
        assert xs[i] == pytest.approx(f.inverse(float(ts[i])), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(hst.data())
def test_intensity_inverse_hits_the_level(data):
    n = data.draw(hst.integers(1, 6))
    u = data.draw(hst.lists(hst.floats(0.05, 4.0), min_size=n, max_size=n, unique=True))
    w = data.draw(hst.lists(hst.floats(1e-3, 1e3), min_size=n, max_size=n))
    ts = np.array(data.draw(hst.lists(hst.floats(1e-6, 1e6), min_size=1, max_size=8)))
    f = lp.TailIntensity(lp.measure(zip(u, w)))
    np.testing.assert_allclose(lp.transform(f.rho, f.inverse(ts)), ts, rtol=1e-10, atol=0)


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
    lo, hi = lp.TailIntensity(rho)._bracket(logt)
    assert np.all(lo <= hi)
    # lo and hi come back through log w - x u, so rounding scales with the logs
    ulps = 4 * np.finfo(float).eps * (1.0 + np.abs(logt) + np.abs(rho.log_w).max())
    assert np.all(lp.log_transform(rho, lo) >= logt - ulps)
    assert np.all(lp.log_transform(rho, hi) <= logt + ulps)


def test_intensity_inverse_independent_of_blocks(monkeypatch):
    f = lp.TailIntensity(_many_atoms(40, 32))
    ts = np.geomspace(1e-9, 1e9, 301)
    default = f.inverse(ts)
    # Newton stops block by block, so a level may take one more step in
    # another block size and move by a rounding error, never more
    for cells in (1, 7 * f.rho.n_atoms, f.rho.n_atoms * ts.size):
        monkeypatch.setattr(numerics, "BLOCK_CELLS", cells)
        np.testing.assert_allclose(f.inverse(ts), default, rtol=1e-14, atol=0)


def test_intensity_inverse_memory_is_flat():
    # one (level, atom) array of 400 levels on 10^4 atoms takes 32 MB
    f = lp.TailIntensity(_many_atoms(10_000, 33))
    ts = np.cumsum(np.random.default_rng(34).exponential(size=(200, 2)), axis=1).ravel()
    f.inverse(ts)
    tracemalloc.start()
    try:
        f.inverse(ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_corpus_properties(corpus):
    assert len(corpus) == 100
    for rho in corpus:
        assert 2 <= rho.n_atoms <= 6
        assert abs(rho.total_mass - 1.0) < 1e-9
        assert rho.w.min() >= 1e-3


def test_corpus_atoms_stay_below_u_max():
    # a u_max at or above the top of CORPUS_U_RANGE leaves the draws as they are
    assert all(np.array_equal(a.u, b.u) and np.array_equal(a.w, b.w)
               for a, b in zip(lp.random_corpus(20, (7,), 4.0),
                               lp.random_corpus(20, (7,), 80.0)))
    lam = inc.gaussian(0.0, 4.0).lambda_hi  # 2.75, below the range's top
    assert all(rho.u[-1] < lam for rho in lp.random_corpus(50, (7,), lam))
    for u_max in (0.05, 0.01, float("nan")):
        with pytest.raises(ValueError, match="no corpus atom fits"):
            lp.random_corpus(1, (7,), u_max)
