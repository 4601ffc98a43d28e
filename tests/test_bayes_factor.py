import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from replisize import bayes_factor
from replisize.bayes_factor import (
    AnalysisPriorSample,
    bf01_from_data,
    log_bf01,
    log_bf01_quadrature,
    log_m0,
    log_m1_mc,
    log_m1_quadrature,
)
from replisize.distributions import FoldedT, HalfT
from replisize.model import DesignPoint
from replisize.predictive import DesignPriorSample, draw_q0, q1_from_q0

ANALYSIS = HalfT(nu=4, sigma=1 / 7)


@pytest.fixture(scope="module")
def sample_10k():
    return AnalysisPriorSample.draw(ANALYSIS, 10_000, seed=7)


def test_log_m0_vanishes_at_origin():
    assert log_m0(0.0, DesignPoint(n=1, m=5)) == 0.0


def test_log_m0_direct_arithmetic():
    # ((m-1)/2) * ln n - q/2 at m=3 reduces to ln n - q/2
    assert log_m0(2.0, DesignPoint(n=7, m=3)) == pytest.approx(math.log(7) - 1.0)


def test_log_m0_linear_in_q_with_slope_minus_half():
    design = DesignPoint(n=50, m=6)
    q = np.arange(0.0, 30.0, 0.5)
    vals = log_m0(q, design)
    slopes = np.diff(vals) / np.diff(q)
    assert np.allclose(slopes, -0.5)


def test_degenerate_prior_sample_collapses_to_m0():
    zeros = AnalysisPriorSample(np.zeros(500))
    for q, n, m in [(0.0, 1, 2), (3.7, 80, 8), (250.0, 100, 8), (9.9, 7, 44)]:
        design = DesignPoint(n, m)
        assert log_m1_mc(q, design, zeros) == log_m0(q, design)
        assert log_bf01(q, design, zeros) == 0.0


def test_log_m1_survives_extreme_q(sample_10k):
    for m in (2, 8, 50):
        design = DesignPoint(n=100, m=m)
        for q in (0.0, 1e2, 1e4, 1e6):
            val = log_m1_mc(q, design, sample_10k)
            assert math.isfinite(val)
            assert math.isfinite(log_bf01(q, design, sample_10k))


def test_underflow_regime_matches_quadrature():
    # at this q the linear-space mixture terms underflow to zero, so only
    # the log-sum-exp path can track the quadrature value
    design = DesignPoint(n=100, m=8)
    sample = AnalysisPriorSample.draw(ANALYSIS, 1_000_000, seed=7)
    mc = log_m1_mc(250.0, design, sample)
    quad = log_m1_quadrature(250.0, design, ANALYSIS)
    assert math.isfinite(mc)
    assert mc == pytest.approx(quad, abs=5e-3)


def test_estimate_stabilizes_as_sample_grows():
    design = DesignPoint(n=80, m=8)
    small = AnalysisPriorSample.draw(ANALYSIS, 10_000, seed=21)
    large = AnalysisPriorSample.draw(ANALYSIS, 1_000_000, seed=22)
    diff = abs(log_m1_mc(10.0, design, small) - log_m1_mc(10.0, design, large))
    assert diff < 0.02


def test_log_bf01_strictly_decreasing_in_q(sample_10k):
    design = DesignPoint(n=80, m=8)
    vals = log_bf01(np.arange(0.0, 51.0), design, sample_10k)
    assert np.all(np.diff(vals) < 0)


def test_bf_at_zero_q_favours_m0(sample_10k):
    for n, m in [(2, 3), (40, 4), (120, 12)]:
        assert log_bf01(0.0, DesignPoint(n, m), sample_10k) >= 0.0


def test_mc_agrees_with_quadrature_on_grid():
    sample = AnalysisPriorSample.draw(ANALYSIS, 100_000, seed=7)
    for q in (1.0, 10.0, 40.0):
        for n in (40, 120):
            for m in (4, 12):
                design = DesignPoint(n, m)
                mc = log_bf01(q, design, sample)
                quad = log_bf01_quadrature(q, design, ANALYSIS)
                assert mc == pytest.approx(quad, rel=1e-2)


def test_vector_and_scalar_paths_agree(monkeypatch, sample_10k):
    design = DesignPoint(n=60, m=6)
    q = np.array([0.0, 3.0, 11.5, 40.0])
    vec = log_bf01(q, design, sample_10k)
    for qi, vi in zip(q, vec):
        assert log_bf01(float(qi), design, sample_10k) == vi
    # a scalar q is built in blocks of _BLOCK draws: S below one block, a
    # multiple of it, one above it, and large enough that the mean's
    # pairwise sum splits the vector; each bit-identical to the array
    # kernel and to the unchunked reference
    block = 7
    monkeypatch.setattr(bayes_factor, "_BLOCK", block)
    rng = np.random.default_rng(12)
    for s_size in (block - 2, 3 * block, 3 * block + 1, 10_000):
        for gammas in (ANALYSIS.sample(s_size, rng), np.zeros(s_size)):
            prior = AnalysisPriorSample(gammas)
            for q in (0.0, 11.5, 1e4):
                one = log_bf01(q, design, prior)
                assert one == log_bf01(np.array([q]), design, prior)[0]
                assert one == _reference_log_bf01(np.array([q]), design, gammas)[0]
                if not gammas.any():
                    assert one == 0.0


def test_worker_count_does_not_change_results(sample_10k):
    design = DesignPoint(n=80, m=8)
    q = np.random.default_rng(5).chisquare(7, size=20_000)
    assert np.array_equal(
        log_bf01(q, design, sample_10k, workers=1),
        log_bf01(q, design, sample_10k, workers=8),
    )


priors = st.one_of(
    st.builds(HalfT, nu=st.floats(1.0, 30.0), sigma=st.floats(0.005, 1.0)),
    st.builds(FoldedT, nu=st.floats(1.0, 30.0), mu=st.floats(0.0, 0.5),
              sigma=st.floats(0.005, 1.0)),
)


@st.composite
def realised_cases(draw):
    """A prior sample, a design and the sorted realised q of T simulated
    studies, half under M0 and half under M1 (the prior as design prior)."""
    prior = draw(priors)
    design = DesignPoint(n=draw(st.integers(2, 1000)), m=draw(st.integers(2, 30)))
    s, t_count = draw(st.integers(1, 2000)), draw(st.integers(2, 2000))
    seed = draw(st.integers(0, 2**32 - 1))
    sample = AnalysisPriorSample.draw(prior, s, seed)
    q0, _ = draw_q0(design.m, t_count, seed)
    q1 = q1_from_q0(q0[t_count // 2:], design.n,
                    DesignPriorSample.draw(prior, t_count - t_count // 2, seed).gammas)
    return sample, design, np.sort(np.concatenate([q0[:t_count // 2], q1]))


@settings(max_examples=30, deadline=None)
@given(realised_cases())
def test_computed_log_bf01_is_non_increasing_in_realised_q(case):
    sample, design, q = case
    assert np.all(np.diff(log_bf01(q, design, sample)) <= 0)


@settings(max_examples=30, deadline=None)
@given(realised_cases())
def test_log_bf01_is_bit_identical_at_any_worker_count(case):
    sample, design, q = case
    serial = log_bf01(q, design, sample)
    for workers in (2, 3):
        assert np.array_equal(log_bf01(q, design, sample, workers=workers), serial)


def _reference_log_bf01(q, design, gammas):
    """log BF01 in the kernel's original expression order, unchunked:
    temporaries for u and 1 + u, and the outer product of q with -b plus a.
    """
    n, m = design.n, design.m
    u = n * gammas * gammas
    a = 0.5 * (m - 1) * np.log(n) + 0.5 * (1 - m) * np.log1p(u)
    b = 0.5 / (1.0 + u)
    w = np.multiply.outer(q, -b) + a
    mx = w.max(axis=1)
    w -= mx[:, None]
    np.exp(w, out=w)
    out = 0.5 * (m - 1) * np.log(n) - 0.5 * q
    out -= mx + np.log(w.mean(axis=1))
    return out


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("rows", ["one", "below_floor", "odd_tail", "three_plus", "all"])
@pytest.mark.parametrize("degenerate", [False, True])
def test_chunked_kernel_equals_unchunked_reference(monkeypatch, workers, rows,
                                                   degenerate):
    # "one" and "below_floor" hold fewer elements than two rows, so the
    # two-row floor sets the chunk; "odd_tail" ends in a one-row chunk
    s_size = 500
    t_size = 999 if rows == "odd_tail" else 1000  # 1000 is not a multiple of 3
    chunk = {"one": s_size, "below_floor": s_size - 1, "odd_tail": 2 * s_size,
             "three_plus": 3 * s_size + 1, "all": s_size * t_size}[rows]
    monkeypatch.setattr(bayes_factor, "_CHUNK_ELEMS", chunk)
    rng = np.random.default_rng(11)
    gammas = np.zeros(s_size) if degenerate else ANALYSIS.sample(s_size, rng)
    prior = AnalysisPriorSample(gammas)
    q = rng.chisquare(5, size=t_size) * 4.0
    q[17] = 0.0
    design = DesignPoint(n=80, m=6)
    got = log_bf01(q, design, prior, workers=workers)
    assert np.array_equal(got, _reference_log_bf01(q, design, prior.gammas))
    if degenerate:
        assert np.all(got == 0.0)


def _traced_peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_row_call_allocates_one_sample_vector_and_two_blocks():
    # one S-vector of a - q*b and the a and b block buffers; more than that
    # lets glibc trim and re-fault the heap on every request of a long run
    # of one-row calls
    prior = AnalysisPriorSample.draw(ANALYSIS, 100_000, seed=3)
    t = np.random.default_rng(4).normal(0.2, 0.1, size=8)
    bf01_from_data(t, 80, 1.0, prior)
    peak = _traced_peak_bytes(lambda: bf01_from_data(t, 80, 1.0, prior))
    assert peak <= prior.gammas.nbytes + 2 * 8 * bayes_factor._BLOCK + 64 * 1024


def test_batch_call_stays_within_one_chunk_buffer(sample_10k):
    # a paper-size pass (T = 5e4): a 1 MiB chunk, a and b, and the output,
    # with log_m0's T-vector made only after the kernel has finished
    q = np.random.default_rng(8).chisquare(7, size=50_000)
    design = DesignPoint(n=80, m=8)
    peak = _traced_peak_bytes(lambda: log_bf01(q, design, sample_10k))
    assert peak < 1.75 * 1024 * 1024


def test_constant_data_attains_the_bf_maximum(sample_10k):
    t = np.full(8, 0.42)
    logbf = bf01_from_data(t, n=80, sigma=1.0, prior=sample_10k)
    assert logbf == log_bf01(0.0, DesignPoint(80, 8), sample_10k)
    rng = np.random.default_rng(6)
    other = rng.normal(size=8)
    assert bf01_from_data(other, 80, 1.0, sample_10k) < logbf


def test_bf_from_data_is_shift_invariant(sample_10k):
    rng = np.random.default_rng(13)
    t = rng.normal(0.2, 0.15, size=8)
    a = bf01_from_data(t, 80, 1.0, sample_10k)
    b = bf01_from_data(t + 3.3, 80, 1.0, sample_10k)
    assert a == pytest.approx(b, rel=1e-9)


def test_bf_from_data_against_direct_double_integral():
    # independent route: marginals of the raw data vector by quadrature
    # over (mu, gamma) and mu alone, no reduction through the dispersion
    # statistic
    t = np.array([0.1, 0.34, 0.27])
    n, sigma = 50, 1.0
    sample = AnalysisPriorSample.draw(ANALYSIS, 400_000, seed=17)

    def likelihood(mu, var):
        resid = t - mu
        return (2 * np.pi * var) ** (-t.size / 2) * np.exp(
            -0.5 * np.dot(resid, resid) / var)

    m0_full, _ = integrate.quad(
        lambda mu: likelihood(mu, sigma**2 / n), -30, 30, limit=200)
    # the prior density is constant over mu, so it multiplies the inner
    # integral instead of being evaluated at every inner point
    def m1_given_g(g):
        inner, _ = integrate.quad(
            lambda mu: likelihood(mu, sigma**2 * (1 / n + g * g)), -30, 30,
            epsabs=1e-12)
        return ANALYSIS.pdf(g) * inner

    m1_full, _ = integrate.quad(m1_given_g, 0, 8, epsabs=1e-12)
    oracle = math.log(m0_full) - math.log(m1_full)

    mc = bf01_from_data(t, n, sigma, sample)
    assert mc == pytest.approx(oracle, rel=1e-2)


def test_empty_or_invalid_prior_sample_rejected():
    with pytest.raises(ValueError):
        AnalysisPriorSample(np.array([]))
    with pytest.raises(ValueError):
        AnalysisPriorSample(np.array([0.1, -0.2]))
    with pytest.raises(ValueError):
        AnalysisPriorSample(np.array([0.1, np.inf]))


def test_negative_q_rejected(sample_10k):
    design = DesignPoint(n=10, m=4)
    for bad in (-1.0, np.nan, np.inf, -np.inf, np.float64(-1.0), np.array(-1.0),
                np.array([1.0, np.nan]), np.array([1.0, np.inf]), np.array([1.0, -1.0])):
        calls = [lambda q: log_m0(q, design),
                 lambda q: log_m1_mc(q, design, sample_10k),
                 lambda q: log_bf01(q, design, sample_10k)]
        if np.ndim(bad) == 0:  # the quadrature oracle takes one q
            calls.append(lambda q: log_m1_quadrature(q, design, ANALYSIS))
        for call in calls:
            with pytest.raises(ValueError, match="^q must be finite and nonnegative$"):
                call(bad)
    assert log_bf01(-0.0, design, sample_10k) == log_bf01(0.0, design, sample_10k)
    with pytest.raises(ValueError, match="^q must be finite and nonnegative$"):
        log_m1_quadrature(-1.0, design, ANALYSIS)


def test_prior_sample_draw_is_reproducible():
    a = AnalysisPriorSample.draw(ANALYSIS, 5000, seed=99)
    b = AnalysisPriorSample.draw(ANALYSIS, 5000, seed=99)
    assert np.array_equal(a.gammas, b.gammas)
    assert a.s == 5000
