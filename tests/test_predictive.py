import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from replisize.bayes_factor import AnalysisPriorSample, log_bf01
from replisize.distributions import FoldedT, HalfT
from replisize.model import DesignPoint
from replisize.predictive import (
    DesignPriorSample,
    LogBfSample,
    load_logbf_csv,
    save_logbf_csv,
    simulate_bf_m0,
    simulate_bf_m1,
)
from replisize.seeding import STREAM_PREDICTIVE, substream

ANALYSIS = HalfT(nu=4, sigma=1 / 7)
DESIGN_PRIOR = FoldedT(nu=4, mu=0.2, sigma=1 / 55)
D80x8 = DesignPoint(n=80, m=8)


@pytest.fixture(scope="module")
def prior_a():
    return AnalysisPriorSample.draw(ANALYSIS, 4000, seed=555)


@pytest.fixture(scope="module")
def prior_d():
    return DesignPriorSample.draw(DESIGN_PRIOR, 20_000, seed=555)


def test_m0_records_bf_of_chi_squared_draws(prior_a):
    seed, t_count = 555, 5000
    sample = simulate_bf_m0(D80x8, prior_a, t_count, seed)
    q = substream(seed, STREAM_PREDICTIVE).chisquare(D80x8.m - 1, t_count)
    assert np.array_equal(sample.values, log_bf01(q, D80x8, prior_a))
    # chi-squared driver has the right mean
    se = math.sqrt(2 * (D80x8.m - 1) / t_count)
    assert abs(q.mean() - (D80x8.m - 1)) < 3 * se
    assert sample.model == "M0" and sample.t_count == t_count
    assert sample.s == prior_a.s


def test_degenerate_analysis_prior_gives_identically_zero():
    zeros = AnalysisPriorSample(np.zeros(100))
    sample = simulate_bf_m0(D80x8, zeros, 2000, 9)
    assert np.all(sample.values == 0.0)


def test_m0_evidence_stays_bounded_at_this_design(prior_a):
    sample = simulate_bf_m0(D80x8, prior_a, 20_000, 555)
    assert sample.values.max() / math.log(10) < 10.0


def test_zero_design_draws_reproduce_m0_exactly(prior_a):
    flat = DesignPriorSample(np.zeros(5000))
    m0 = simulate_bf_m0(D80x8, prior_a, 5000, 777)
    m1 = simulate_bf_m1(D80x8, prior_a, flat, 777)
    assert np.array_equal(m0.values, m1.values)


def test_heterogeneity_detection_rate_at_moderate_cutoff(prior_a, prior_d):
    sample = simulate_bf_m1(D80x8, prior_a, prior_d, 555)
    assert np.mean(sample.values < math.log(1 / 3)) == pytest.approx(0.78, abs=0.02)


def test_m1_stochastically_dominated_by_m0(prior_a, prior_d):
    # heterogeneity pushes BF01 down, so the M1 cdf sits above the M0 cdf
    m0 = simulate_bf_m0(D80x8, prior_a, prior_d.t_count, 555)
    m1 = simulate_bf_m1(D80x8, prior_a, prior_d, 555)
    grid = np.linspace(m0.values.min(), m0.values.max(), 201)
    cdf_m0 = np.searchsorted(np.sort(m0.values), grid) / m0.t_count
    cdf_m1 = np.searchsorted(np.sort(m1.values), grid) / m1.t_count
    assert np.all(cdf_m1 >= cdf_m0)


def test_tail_probability_decreases_with_evidence_level(prior_a):
    sample = simulate_bf_m0(D80x8, prior_a, 20_000, 555)
    probs = [np.mean(sample.values < math.log(1 / k)) for k in (1, 3, 10)]
    assert probs[0] >= probs[1] >= probs[2]


def test_lower_quantile_drifts_up_past_the_dip(prior_a):
    # the alpha-quantile of log BF01 under M0 is not monotone from n=40:
    # it dips near n=80 for m=8 before climbing (verified by quadrature);
    # assert the climb on the far side of the dip
    def alpha_quantile(n):
        sample = simulate_bf_m0(DesignPoint(n, 8), prior_a, 20_000, 555)
        rank = math.ceil(0.01 * sample.t_count)
        return np.sort(sample.values)[rank - 1]

    q80, q120, q240, q500 = map(alpha_quantile, (80, 120, 240, 500))
    assert q80 < q120 < q240 < q500


def test_same_seed_same_sample_any_worker_count(prior_a, prior_d):
    one = simulate_bf_m1(D80x8, prior_a, prior_d, 321, workers=1)
    eight = simulate_bf_m1(D80x8, prior_a, prior_d, 321, workers=8)
    assert np.array_equal(one.values, eight.values)
    again = simulate_bf_m1(D80x8, prior_a, prior_d, 321)
    assert np.array_equal(one.values, again.values)
    assert one.seeds == (321, STREAM_PREDICTIVE)


def test_t_count_mismatch_rejected(tmp_path, prior_a):
    # a CSV cut short no longer matches the t_count in its sidecar
    path = tmp_path / "m0.csv"
    save_logbf_csv(simulate_bf_m0(D80x8, prior_a, 50, 1), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))
    with pytest.raises(ValueError, match="t_count"):
        load_logbf_csv(path)
    with pytest.raises(ValueError):
        simulate_bf_m0(D80x8, prior_a, 0, 1)


def test_log_bf_sample_validation(prior_a):
    with pytest.raises(ValueError):
        LogBfSample(values=np.array([1.0, np.nan]), model="M0", design=D80x8, s=10)
    with pytest.raises(ValueError):
        LogBfSample(values=np.array([1.0]), model="M2", design=D80x8, s=10)
    with pytest.raises(ValueError, match="1-d"):
        LogBfSample(values=np.ones((2, 2)), model="M0", design=D80x8, s=10)
    assert LogBfSample(values=np.ones(5), model="M0", design=D80x8, s=10).t_count == 5


def test_csv_export_round_trips_and_is_deterministic(tmp_path, prior_a, prior_d):
    sample = simulate_bf_m1(D80x8, prior_a, prior_d, 42)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    save_logbf_csv(sample, path_a, priors={"x": 1}, wall_time_ms=12)
    save_logbf_csv(sample, path_b, priors={"x": 1}, wall_time_ms=99)
    assert path_a.read_bytes() == path_b.read_bytes()

    back = load_logbf_csv(path_a)
    assert np.array_equal(back.values, sample.values)
    assert back.design == sample.design
    assert back.model == sample.model
    assert back.seeds == sample.seeds


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([5e-324, -0.0, 1e-05]), min_size=1, max_size=20))
def test_csv_export_round_trips_any_finite_values(tmp_path, values):
    sample = LogBfSample(values=np.array(values), model="M0", design=D80x8, s=10)
    path = tmp_path / "bf.csv"
    save_logbf_csv(sample, path)
    back = load_logbf_csv(path).values
    assert back.dtype == np.float64
    assert np.array_equal(back.view(np.uint64), sample.values.view(np.uint64))
