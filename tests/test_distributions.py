import numpy as np
import pytest
from scipy import integrate, stats

from replisize.distributions import (
    ChiSquared,
    FoldedT,
    HalfT,
    prior_from_dict,
    prior_to_dict,
)

HALF = HalfT(nu=4, sigma=1 / 7)
FOLDED = FoldedT(nu=4, mu=0.2, sigma=1 / 55)


# HalfT is FoldedT with mu = 0.  Its former stand-alone formulas stay here
# as the oracle for the inherited methods.
@pytest.mark.parametrize("nu, sigma", [(4, 1 / 7), (1, 0.3), (30, 2.0)])
def test_half_t_sample_is_bit_equal_to_the_half_t_formula(nu, sigma):
    expected = np.abs(sigma * np.random.default_rng(5).standard_t(nu, size=50_000))
    assert np.array_equal(HalfT(nu, sigma).sample(50_000, np.random.default_rng(5)),
                          expected)


@pytest.mark.parametrize("nu, sigma", [(4, 1 / 7), (1, 0.3), (30, 2.0)])
def test_half_t_pdf_and_cdf_match_the_half_t_formulas(nu, sigma):
    x = np.linspace(-1.0, 20.0, 20_001)
    half = HalfT(nu, sigma)
    pdf = np.where(x < 0, 0.0, 2.0 * stats.t.pdf(x / sigma, nu) / sigma)
    cdf = np.where(x < 0, 0.0, 2.0 * stats.t.cdf(x / sigma, nu) - 1.0)
    assert np.array_equal(half.pdf(x), pdf)
    assert np.max(np.abs(half.cdf(x) - cdf)) <= 1e-15


def test_half_t_keeps_its_constructor_repr_and_dict():
    half = HalfT(4, 1 / 7)
    assert half == HALF and half.mu == 0.0
    assert repr(half) == "HalfT(nu=4, sigma=0.14285714285714285)"
    assert prior_to_dict(half) == {"family": "half_t", "nu": 4, "sigma": 1 / 7}
    with pytest.raises(TypeError):
        HalfT(4, 0.2, 1 / 7)
    with pytest.raises(TypeError):
        HalfT(nu=4, mu=0.2, sigma=1 / 7)


def test_folded_with_zero_location_equals_half_pointwise():
    folded = FoldedT(nu=4, mu=0.0, sigma=1 / 7)
    x = np.linspace(0, 5, 1000)
    assert np.max(np.abs(folded.pdf(x) - HALF.pdf(x))) < 1e-12


@pytest.mark.parametrize("dist", [HALF, FOLDED, FoldedT(nu=3, mu=0.5, sigma=0.2)])
def test_pdf_normalizes_by_quadrature(dist):
    total, err = integrate.quad(dist.pdf, 0, np.inf, limit=200)
    assert abs(total - 1.0) < 1e-6
    assert err < 1e-6


def test_pdf_zero_below_support_and_nonnegative():
    x = np.linspace(-3, 8, 500)
    for dist in (HALF, FOLDED):
        vals = dist.pdf(x)
        assert np.all(vals >= 0)
        assert np.all(vals[x < 0] == 0)
    assert HALF.pdf(-0.5) == 0.0


def test_half_t_pdf_monotone_decreasing():
    x = np.linspace(0, 10, 2000)
    vals = HALF.pdf(x)
    assert np.all(np.diff(vals) <= 0)


def test_half_t_upper_quantile_near_point_four():
    assert HALF.quantile(0.95) == pytest.approx(0.40, abs=0.01)


def test_folded_median_sits_at_location():
    # folding mass is negligible at mu/sigma = 11
    assert FOLDED.quantile(0.5) == pytest.approx(0.2, abs=1e-3)


@pytest.mark.parametrize("dist", [HALF, FOLDED])
def test_quantile_strictly_increasing(dist):
    qs = [dist.quantile(p) for p in np.arange(0.1, 0.95, 0.1)]
    assert np.all(np.diff(qs) > 0)


@pytest.mark.parametrize("dist", [HALF, FOLDED])
def test_quantile_inverts_cdf(dist):
    for p in np.arange(0.05, 0.951, 0.05):
        assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-6)


def test_quantile_bracket_doubles_past_fifty_scales():
    # a folded Cauchy has cdf (2/pi) atan(x): its 0.99999 quantile, ~63 662,
    # lies far past the first bracket end at 50 scales
    dist = FoldedT(nu=1, mu=0, sigma=1)
    assert dist.cdf(50.0) < 0.99999
    assert dist.quantile(0.99999) == pytest.approx(np.tan(np.pi * 0.99999 / 2), rel=1e-8)


def test_chi_squared_sample_mean_matches_df():
    rng = np.random.default_rng(101)
    draws = ChiSquared(7).sample(1_000_000, rng)
    assert np.all(draws >= 0)
    assert draws.mean() == pytest.approx(7.0, abs=0.03)


def test_folded_sample_central_interval_matches_design_band():
    rng = np.random.default_rng(7)
    draws = FOLDED.sample(1_000_000, rng)
    lo, hi = np.quantile(draws, [0.025, 0.975])
    assert lo == pytest.approx(0.15, abs=0.005)
    assert hi == pytest.approx(0.25, abs=0.005)


def test_sampling_is_reproducible_for_a_seed():
    a = HALF.sample(10_000, 42)
    b = HALF.sample(10_000, 42)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dist", [HALF, FOLDED, ChiSquared(7)])
def test_empirical_cdf_matches_analytic_cdf(dist):
    rng = np.random.default_rng(12345)
    draws = dist.sample(100_000, rng)
    ks = stats.kstest(draws, dist.cdf).statistic
    assert ks < 0.01


def test_parameter_validation():
    with pytest.raises(ValueError):
        HalfT(nu=0, sigma=1)
    with pytest.raises(ValueError):
        HalfT(nu=4, sigma=0)
    with pytest.raises(ValueError):
        FoldedT(nu=4, mu=-0.1, sigma=1)
    with pytest.raises(ValueError):
        FoldedT(nu=-1, mu=0.2, sigma=1)
    with pytest.raises(ValueError):
        ChiSquared(0)
    with pytest.raises(ValueError):
        ChiSquared(2.5)


def test_nu_below_one_tenth_rejected_and_draws_at_one_tenth_finite():
    # numpy's standard_t overflows to inf when its Gamma(nu/2) draw underflows,
    # with probability ~10**(-161.7 nu) per draw: 2.4 % at nu 0.01, ~1e-16 at 0.1
    with pytest.raises(ValueError, match="nu must be finite and >= 0.1"):
        FoldedT(0.099, 0, 1)
    with pytest.raises(ValueError, match="nu must be finite and >= 0.1"):
        HalfT(0.099, 1)
    draws = FoldedT(nu=0.1, mu=0, sigma=1).sample(1_000_000, 0)
    assert np.all(np.isfinite(draws))


def test_empty_sample_request_rejected():
    with pytest.raises(ValueError):
        HALF.sample(0, 1)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.7])
def test_quantile_domain_checked(p):
    with pytest.raises(ValueError):
        HALF.quantile(p)


def test_prior_dict_round_trip():
    for prior in (HALF, FOLDED):
        assert prior_from_dict(prior_to_dict(prior)) == prior
    assert prior_to_dict(HALF) == {"family": "half_t", "nu": 4, "sigma": 1 / 7}
    assert "mu" in prior_to_dict(FOLDED)
    with pytest.raises(TypeError, match="not a prior distribution"):
        prior_to_dict(object())


def test_prior_from_dict_rejects_bad_specs():
    with pytest.raises(ValueError):
        prior_from_dict({"family": "normal", "nu": 1, "sigma": 1})
    with pytest.raises(ValueError):
        prior_from_dict({"nu": 1, "sigma": 1})
    with pytest.raises(ValueError):
        prior_from_dict({"family": "half_t", "nu": 4, "sigma": 0.1, "mu": 0.3})
    for key in ("nu", "mu", "sigma"):
        with pytest.raises(ValueError, match=key):
            prior_from_dict({"family": "folded_t", "nu": 4, "mu": 0.2, "sigma": 0.1,
                             key: True})
