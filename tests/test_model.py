import numpy as np
import pytest
from scipy import stats

from replisize.model import (
    DesignPoint,
    compute_q,
    load_effect_sizes,
    simulate_effect_sizes,
)


def test_constant_effects_give_zero_q():
    assert compute_q([0.3, 0.3, 0.3], n=17, sigma=2.0) == 0.0


def test_q_direct_arithmetic():
    # centered squares: 0.25 + 0.25, scaled by n / sigma^2 = 4 / 2
    assert compute_q([0.0, 1.0], n=4, sigma=np.sqrt(2)) == pytest.approx(1.0)


def test_q_invariant_under_common_shift():
    rng = np.random.default_rng(3)
    t = rng.normal(size=6)
    base = compute_q(t, n=20, sigma=0.7)
    for c in (-5.0, 0.25, 1e3):
        assert compute_q(t + c, n=20, sigma=0.7) == pytest.approx(base, rel=1e-9)


def test_q_invariant_under_joint_rescaling():
    rng = np.random.default_rng(4)
    t = rng.normal(size=9)
    base = compute_q(t, n=33, sigma=1.3)
    for c in (0.1, 2.0, 40.0):
        assert compute_q(c * t, n=33, sigma=c * 1.3) == pytest.approx(base, rel=1e-9)


def test_q_input_validation():
    with pytest.raises(ValueError):
        compute_q([1.0], n=4, sigma=1.0)
    with pytest.raises(ValueError):
        compute_q([1.0, np.nan], n=4, sigma=1.0)
    with pytest.raises(ValueError, match="1-d"):
        compute_q([[1.0, 2.0], [3.0, 4.0]], n=4, sigma=1.0)
    for n, sigma in [(0, 1.0), (np.nan, 1.0), (4, 0.0), (4, np.nan), (4, np.inf)]:
        with pytest.raises(ValueError):
            compute_q([1.0, 2.0], n=n, sigma=sigma)


def test_design_point_validation():
    with pytest.raises(ValueError):
        DesignPoint(n=0, m=8)
    with pytest.raises(ValueError):
        DesignPoint(n=10, m=1)
    for sigma in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="sigma"):
            simulate_effect_sizes(DesignPoint(10, 4), 0.1, 0.0, 1, sigma=sigma)
    with pytest.raises(ValueError):
        simulate_effect_sizes(DesignPoint(10, 4), gamma=-0.1, mu=0.0, rng=1)


def test_site_estimate_variance_shrinks_with_n():
    rng = np.random.default_rng(11)
    variances = []
    for n in (10, 100, 1000):
        draws = np.array([
            simulate_effect_sizes(DesignPoint(n, 2), 0.0, 0.3, rng)[0]
            for _ in range(20_000)
        ])
        variances.append(draws.var())
        assert draws.var() == pytest.approx(1.0 / n, rel=0.05)
    assert variances[0] > variances[1] > variances[2]


def _simulated_q(gamma, n, m, reps, seed):
    rng = np.random.default_rng(seed)
    sd = np.sqrt(1.0 / n + gamma * gamma)
    t = rng.normal(0.1, sd, size=(reps, m))
    centered = t - t.mean(axis=1, keepdims=True)
    return n * (centered**2).sum(axis=1)


def test_q_under_no_heterogeneity_is_chi_squared():
    q = _simulated_q(0.0, n=80, m=8, reps=100_000, seed=8)
    assert q.mean() == pytest.approx(7.0, abs=0.05)
    assert stats.kstest(q, stats.chi2(7).cdf).statistic < 0.01


def test_scaled_q_under_heterogeneity_is_chi_squared():
    q = _simulated_q(0.2, n=80, m=8, reps=100_000, seed=9)
    scaled = q / (1 + 80 * 0.04)
    assert scaled.mean() == pytest.approx(7.0, abs=0.05)
    assert stats.kstest(scaled, stats.chi2(7).cdf).statistic < 0.01


def test_simulated_effects_feed_compute_q():
    rng = np.random.default_rng(10)
    reps = 100_000
    qs = np.empty(reps)
    design = DesignPoint(80, 8)
    for i in range(reps // 1000):
        block = rng.normal(0.0, np.sqrt(1 / 80), size=(1000, 8))
        centered = block - block.mean(axis=1, keepdims=True)
        qs[i * 1000:(i + 1) * 1000] = 80 * (centered**2).sum(axis=1)
    single = compute_q(simulate_effect_sizes(design, 0.0, 0.0, rng), 80, 1.0)
    assert single >= 0
    assert qs.mean() == pytest.approx(7.0, abs=0.06)


def test_load_effect_sizes_with_and_without_header(tmp_path):
    with_header = tmp_path / "a.csv"
    with_header.write_text("t\n0.1\n0.2\n0.3\n")
    bare = tmp_path / "b.csv"
    bare.write_text("0.1\n0.2\n0.3\n")
    blank_lines = tmp_path / "c.csv"
    blank_lines.write_text("t\n\n0.1\n0.2\n \n0.3\n\n")
    expected = np.array([0.1, 0.2, 0.3])
    for path in (with_header, bare, blank_lines):
        assert np.allclose(load_effect_sizes(path), expected)


def test_load_effect_sizes_rejects_bad_rows(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t\n0.1\noops\n")
    with pytest.raises(ValueError, match="not a number"):
        load_effect_sizes(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="no effect sizes"):
        load_effect_sizes(empty)
