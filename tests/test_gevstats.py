"""Extreme-value distribution evaluation, fitting, and split plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy import stats

from nlosid import (ConfigError, FitError, GevParams, bootstrap_split,
                    cdf_rmse, gev_cdf, gev_fit_mle, gev_pdf)
from nlosid.gevstats import _neg_log_likelihood, _pwm_init

from conftest import gev_inverse_sample


def random_params(rng) -> GevParams:
    return GevParams(gamma=float(rng.uniform(-0.8, 0.8)),
                     mu=float(rng.uniform(-20, 20)),
                     sigma=float(rng.uniform(0.2, 15.0)))


# ---------------------------------------------------------------------------
# density and distribution function


def test_params_validation_and_support():
    with pytest.raises(GevParams.error, match="GevParams.sigma must be "
                                              "positive, got 0.0"):
        GevParams(gamma=0.1, mu=0.0, sigma=0.0)
    with pytest.raises(GevParams.error, match="GevParams.gamma must be "
                                              "finite, got nan"):
        GevParams(gamma=math.nan, mu=0.0, sigma=1.0)
    heavy = GevParams(gamma=0.5, mu=2.0, sigma=1.0)
    assert heavy.support() == (0.0, math.inf)
    bounded = GevParams(gamma=-0.5, mu=2.0, sigma=1.0)
    assert bounded.support() == (-math.inf, 4.0)
    gumbel = GevParams(gamma=0.0, mu=2.0, sigma=1.0)
    assert gumbel.support() == (-math.inf, math.inf)


def test_gumbel_branch_at_location():
    for gamma in (0.0, 1e-12, -1e-12):
        p = GevParams(gamma=gamma, mu=3.0, sigma=2.5)
        assert gev_pdf(3.0, p) == pytest.approx(math.exp(-1.0) / 2.5,
                                                rel=1e-12)
        assert gev_cdf(3.0, p) == pytest.approx(math.exp(-1.0), rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", [0.0, 0.1, -0.1])
def test_values_past_the_float_range_of_z_need_no_warning(gamma):
    """(x - mu) / sigma overflows to inf; the density is 0 there and the
    cdf saturates, without a RuntimeWarning."""
    p = GevParams(gamma=gamma, mu=0.0, sigma=1e-3)
    assert gev_pdf(np.array([1e308, -1e308]), p).tolist() == [0.0, 0.0]
    assert gev_cdf(1e308, p) == 1.0
    assert gev_cdf(-1e308, p) == 0.0


def test_out_of_support_values():
    heavy = GevParams(gamma=0.5, mu=2.0, sigma=1.0)   # support (0, inf)
    assert gev_pdf(-1.0, heavy) == 0.0
    assert gev_cdf(-1.0, heavy) == 0.0
    bounded = GevParams(gamma=-0.5, mu=2.0, sigma=1.0)  # support (-inf, 4)
    assert gev_pdf(5.0, bounded) == 0.0
    assert gev_cdf(5.0, bounded) == 1.0


def test_matches_reference_distribution(rng):
    # scipy parameterizes the shape with the opposite sign
    for _ in range(25):
        p = random_params(rng)
        lo, hi = p.support()
        x = rng.uniform(max(lo, p.mu - 6 * p.sigma),
                        min(hi, p.mu + 6 * p.sigma), 40)
        assert np.allclose(gev_pdf(x, p),
                           stats.genextreme.pdf(x, -p.gamma, loc=p.mu,
                                                scale=p.sigma),
                           rtol=1e-10, atol=1e-300)
        assert np.allclose(gev_cdf(x, p),
                           stats.genextreme.cdf(x, -p.gamma, loc=p.mu,
                                                scale=p.sigma),
                           rtol=1e-10)


def test_cdf_monotone(rng):
    p = random_params(rng)
    a = rng.uniform(p.mu - 30 * p.sigma, p.mu + 30 * p.sigma, 1000)
    b = a + rng.uniform(0.0, 10.0, 1000)
    assert np.all(gev_cdf(a, p) <= gev_cdf(b, p) + 1e-15)


def test_pdf_integrates_to_one(rng):
    for _ in range(10):
        p = random_params(rng)
        lo, hi = p.support()
        left, _ = integrate.quad(lambda x: gev_pdf(x, p), lo, p.mu, limit=300)
        right, _ = integrate.quad(lambda x: gev_pdf(x, p), p.mu, hi, limit=300)
        assert left + right == pytest.approx(1.0, abs=1e-6)


# shapes across both tails, plus the Gumbel branch at and around 0
_gev_params = st.builds(
    GevParams,
    gamma=st.one_of(st.floats(-0.9, 0.9), st.sampled_from([0.0, 1e-10,
                                                           -1e-10])),
    mu=st.floats(-20.0, 20.0), sigma=st.floats(0.2, 15.0))


@settings(max_examples=200, deadline=None)
@given(p=_gev_params)
def test_cdf_non_decreasing_across_support_edges(p):
    lo, hi = p.support()
    edges = [e for e in (lo, hi) if math.isfinite(e)]
    near = [np.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    left = lo if math.isfinite(lo) else p.mu - 40 * p.sigma
    right = hi if math.isfinite(hi) else p.mu + 40 * p.sigma
    x = np.sort(np.concatenate([
        np.linspace(left - 5 * p.sigma, right + 5 * p.sigma, 2001),
        edges, near]))
    cdf = gev_cdf(x, p)
    assert np.all(cdf[:-1] <= cdf[1:] + 1e-15)


@settings(max_examples=100, deadline=None)
@given(p=_gev_params)
def test_pdf_integrates_to_one_over_the_support(p):
    # a shape near 0 puts a finite edge millions of scales away, where quad
    # would miss the peak, so the pieces break at mu and mu +- 40 sigma
    lo, hi = p.support()
    cuts = [lo, *(c for c in (p.mu - 40 * p.sigma, p.mu, p.mu + 40 * p.sigma)
                  if lo < c < hi), hi]
    total = sum(integrate.quad(lambda x: gev_pdf(x, p), a, b, limit=300)[0]
                for a, b in zip(cuts, cuts[1:]))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_cdf_derivative_is_pdf(rng):
    for _ in range(10):
        p = random_params(rng)
        lo, hi = p.support()
        xs = rng.uniform(max(lo, p.mu - 3 * p.sigma),
                         min(hi, p.mu + 3 * p.sigma), 20)
        h = 1e-6 * p.sigma
        for x in xs:
            if x - h <= lo or x + h >= hi:
                continue
            fd = (gev_cdf(x + h, p) - gev_cdf(x - h, p)) / (2 * h)
            density = gev_pdf(x, p)
            if density > 1e-12:
                assert fd == pytest.approx(density, rel=1e-6)


def test_scalar_and_array_agree(rng):
    p = random_params(rng)
    xs = rng.uniform(p.mu - 3 * p.sigma, p.mu + 3 * p.sigma, 10)
    batch_pdf = gev_pdf(xs, p)
    batch_cdf = gev_cdf(xs, p)
    for i, x in enumerate(xs):
        assert gev_pdf(float(x), p) == batch_pdf[i]
        assert gev_cdf(float(x), p) == batch_cdf[i]
    assert isinstance(gev_pdf(float(xs[0]), p), float)


# ---------------------------------------------------------------------------
# fit


def test_fit_recovers_seeded_draws():
    true = GevParams(gamma=-0.21, mu=318.9, sigma=53.5)
    x = gev_inverse_sample(true.gamma, true.mu, true.sigma, 2000, seed=404)
    fit = gev_fit_mle(x)
    assert fit.mu == pytest.approx(true.mu, rel=0.10)
    assert fit.sigma == pytest.approx(true.sigma, rel=0.10)
    assert abs(fit.gamma - true.gamma) <= 0.15
    assert cdf_rmse(x, fit) < 0.05


def test_fit_gumbel_shape_near_zero():
    x = gev_inverse_sample(0.0, 5.0, 2.0, 2000, seed=77)
    fit = gev_fit_mle(x)
    assert abs(fit.gamma) < 0.1


def test_fit_never_worse_than_initializer():
    for seed, gamma in ((1, -0.4), (2, 0.0), (3, 0.3)):
        x = gev_inverse_sample(gamma, 10.0, 3.0, 400, seed=seed)
        fit = gev_fit_mle(x)
        g0, s0, m0 = _pwm_init(np.sort(x))
        for _ in range(80):
            if math.isfinite(_neg_log_likelihood(g0, s0, m0, x)):
                break
            g0 *= 0.5
        init_nll = _neg_log_likelihood(g0, s0, m0, x)
        fit_nll = _neg_log_likelihood(fit.gamma, fit.sigma, fit.mu, x)
        assert fit_nll <= init_nll + 1e-9


def test_fit_location_scale_equivariance():
    x = gev_inverse_sample(-0.25, 4.0, 1.5, 800, seed=10)
    base = gev_fit_mle(x)
    a, b = 7.0, -30.0
    moved = gev_fit_mle(a * x + b)
    assert moved.gamma == pytest.approx(base.gamma, abs=1e-3)
    assert moved.sigma == pytest.approx(a * base.sigma, rel=1e-3)
    assert moved.mu == pytest.approx(a * base.mu + b, abs=1e-3 * a * base.sigma)


def test_fit_is_deterministic():
    x = gev_inverse_sample(-0.1, 0.0, 1.0, 300, seed=8)
    assert gev_fit_mle(x) == gev_fit_mle(list(x))


def test_fit_input_validation():
    with pytest.raises(FitError):
        gev_fit_mle(np.ones(50))
    with pytest.raises(FitError):
        gev_fit_mle(np.arange(10.0))
    bad = np.arange(50.0)
    bad[3] = np.nan
    with pytest.raises(FitError):
        gev_fit_mle(bad)


# ---------------------------------------------------------------------------
# fit quality


def test_cdf_rmse_zero_at_exact_quantiles():
    p = GevParams(gamma=-0.3, mu=2.0, sigma=0.5)
    n = 99
    u = np.arange(1, n + 1) / (n + 1.0)
    x = p.mu + p.sigma * ((-np.log(u)) ** -p.gamma - 1.0) / p.gamma
    assert cdf_rmse(x, p) < 1e-12


def test_cdf_rmse_flags_bad_scale():
    x = gev_inverse_sample(-0.2, 5.0, 1.0, 500, seed=3)
    good = gev_fit_mle(x)
    assert cdf_rmse(x, good) < 0.05
    bad = GevParams(gamma=good.gamma, mu=good.mu, sigma=good.sigma * 10)
    assert cdf_rmse(x, bad) > 0.1
    with pytest.raises(FitError):
        cdf_rmse([1.0], good)


# ---------------------------------------------------------------------------
# bootstrap splits


def test_bootstrap_split_protocol():
    splits = bootstrap_split(100, 30, 20, 10, seed=5)
    assert len(splits) == 10
    for train, test in splits:
        assert len(train) == 30 and len(test) == 20
        assert len(np.intersect1d(train, test)) == 0
        assert train.min() >= 0 and test.max() < 100
        assert np.array_equal(train, np.sort(train))
    again = bootstrap_split(100, 30, 20, 10, seed=5)
    assert all(np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
               for a, b in zip(splits, again))
    other = bootstrap_split(100, 30, 20, 10, seed=6)
    assert any(not np.array_equal(a[0], b[0])
               for a, b in zip(splits, other))


def test_bootstrap_split_exhaustive_complement():
    train, test = bootstrap_split(12, 7, 5, 1, seed=0)[0]
    assert sorted(np.concatenate([train, test]).tolist()) == list(range(12))


def test_bootstrap_split_infeasible():
    with pytest.raises(ConfigError):
        bootstrap_split(10, 8, 3, 2, seed=0)
    with pytest.raises(ConfigError):
        bootstrap_split(10, 0, 3, 2, seed=0)
