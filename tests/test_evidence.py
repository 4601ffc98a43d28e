import json
import math

import numpy as np
import pytest

from replisize.bayes_factor import AnalysisPriorSample
from replisize.distributions import FoldedT, HalfT
from replisize.evidence import Thresholds, classify, probs_to_dict, threshold_from_alpha
from replisize.model import DesignPoint
from replisize.predictive import DesignPriorSample, LogBfSample, simulate_bf_m0, simulate_bf_m1

ANALYSIS = HalfT(nu=4, sigma=1 / 7)
DESIGN_PRIOR = FoldedT(nu=4, mu=0.2, sigma=1 / 55)


def _sample(values, model="M0", n=80, m=8):
    values = np.asarray(values, dtype=float)
    return LogBfSample(values=values, model=model, design=DesignPoint(n, m), s=1)


@pytest.fixture(scope="module")
def pair_80x8():
    design = DesignPoint(80, 8)
    prior_a = AnalysisPriorSample.draw(ANALYSIS, 4000, seed=99)
    prior_d = DesignPriorSample.draw(DESIGN_PRIOR, 20_000, seed=99)
    m0 = simulate_bf_m0(design, prior_a, 20_000, 99)
    m1 = simulate_bf_m1(design, prior_a, prior_d, 99)
    return m0, m1


def test_triples_sum_to_one_and_overall_is_mixture(pair_80x8):
    m0, m1 = pair_80x8
    probs = classify(m0, m1, Thresholds(3.0, 1 / 3), pi0=0.3)
    for triple in [(probs.p0_c, probs.p0_m, probs.p0_u),
                   (probs.p1_c, probs.p1_m, probs.p1_u),
                   (probs.p_c, probs.p_m, probs.p_u)]:
        assert abs(sum(triple) - 1.0) < 1e-12
        assert all(0.0 <= p <= 1.0 for p in triple)
    assert probs.p_c == pytest.approx(0.3 * probs.p0_c + 0.7 * probs.p1_c, abs=1e-15)


def test_everything_undetermined_at_extreme_cutoffs(pair_80x8):
    m0, m1 = pair_80x8
    probs = classify(m0, m1, Thresholds(k0=1e300, inv_k1=1e-300), pi0=0.5)
    assert probs.p0_u == 1.0 and probs.p1_u == 1.0


def test_pi0_one_reduces_overall_to_m0_triple(pair_80x8):
    m0, m1 = pair_80x8
    probs = classify(m0, m1, Thresholds(3.0, 1 / 3), pi0=1.0)
    assert (probs.p_c, probs.p_m, probs.p_u) == (probs.p0_c, probs.p0_m, probs.p0_u)


def test_values_on_the_cutoffs_count_as_undetermined():
    logs = np.log([0.2, 1 / 3, 1.0, 3.0, 9.0])
    m0 = _sample(logs, "M0")
    m1 = _sample(logs, "M1")
    probs = classify(m0, m1, Thresholds(k0=3.0, inv_k1=1 / 3), pi0=0.5)
    assert probs.p0_c == pytest.approx(0.2)   # only 9.0 clears k0
    assert probs.p0_m == pytest.approx(0.2)   # only 0.2 clears 1/k1
    assert probs.p0_u == pytest.approx(0.6)   # both boundary values included
    assert probs.p1_c == pytest.approx(0.2)


def test_design_mismatch_and_order_rejected(pair_80x8):
    m0, m1 = pair_80x8
    other = _sample([0.0, 1.0], "M1", n=81, m=8)
    with pytest.raises(ValueError, match="design mismatch"):
        classify(m0, other, Thresholds(3.0, 1 / 3), pi0=0.5)
    with pytest.raises(ValueError, match="in that order"):
        classify(m1, m0, Thresholds(3.0, 1 / 3), pi0=0.5)


def test_pi0_outside_the_unit_interval_rejected(pair_80x8):
    with pytest.raises(ValueError, match="pi0 must lie in"):
        classify(*pair_80x8, Thresholds(3.0, 1 / 3), pi0=1.5)


def test_fixed_degenerate_thresholds_rejected_at_construction():
    with pytest.raises(ValueError, match="degenerate"):
        Thresholds(k0=0.5, inv_k1=0.8)
    with pytest.raises(ValueError, match="degenerate"):
        Thresholds(k0=0.5, inv_k1=0.5)


def test_derived_overlapping_thresholds_leave_the_overlap_undetermined(pair_80x8):
    m0, m1 = pair_80x8
    th = Thresholds(k0=0.5, inv_k1=0.8, alpha=0.05)
    assert th.degenerate
    probs = classify(m0, m1, th, pi0=0.5)
    for triple in [(probs.p0_c, probs.p0_m, probs.p0_u),
                   (probs.p1_c, probs.p1_m, probs.p1_u)]:
        assert abs(sum(triple) - 1.0) < 1e-12
        assert all(0.0 <= p <= 1.0 for p in triple)
    # tails shrink to the unambiguous regions
    assert probs.p0_c == pytest.approx(np.mean(m0.values > np.log(0.8)))
    assert probs.p0_m == pytest.approx(np.mean(m0.values < np.log(0.5)))


def test_thresholds_validation():
    with pytest.raises(ValueError):
        Thresholds(k0=0.0, inv_k1=0.3)
    with pytest.raises(ValueError):
        Thresholds(k0=3.0, inv_k1=0.0)
    with pytest.raises(ValueError):
        Thresholds(k0=3.0, inv_k1=math.inf)
    assert not Thresholds(k0=math.inf, inv_k1=0.2).degenerate


@pytest.mark.parametrize("alpha", [math.nan, 0.0, 0.5, 5.0, -1.0])
def test_thresholds_alpha_outside_the_open_interval_rejected(alpha):
    # a NaN alpha would also skip the degenerate check and reach the JSON
    # report as NaN
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 0\.5\), got "):
        Thresholds(3.0, 1 / 3, alpha)
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 0\.5\), got "):
        Thresholds.from_log(math.log(3.0), math.log(1 / 3), alpha)


def test_log_cutoffs_must_agree_with_their_values():
    # classify reads the log cutoffs, so a pair reporting k0 = 3 while it
    # classifies against e^5 would report cutoffs it did not use
    for bad in [(3.0, 1 / 3, None, 5.0, None), (3.0, 1 / 3, None, None, -7.0),
                (3.0, 1 / 3, 0.05, math.log(3.0), math.nan)]:
        with pytest.raises(ValueError, match="contradicts"):
            Thresholds(*bad)
    # every from_log pair agrees by construction, an underflowed k0 and an
    # infinite one included
    for log_k0, log_inv_k1 in [(math.log(3.0), -1.1), (-800.0, -1.0), (math.inf, -1.5)]:
        th = Thresholds.from_log(log_k0, log_inv_k1, 0.05)
        assert Thresholds(th.k0, th.inv_k1, 0.05, log_k0, log_inv_k1) == th


def test_nearest_rank_on_small_sample():
    values = np.log([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
    # M0: ceil(0.25 * 10) = 3rd order statistic
    assert math.exp(threshold_from_alpha(_sample(values, "M0"), 0.25)) == pytest.approx(3.0)
    # M1: ceil(0.75 * 10) = 8th order statistic
    assert math.exp(threshold_from_alpha(_sample(values, "M1"), 0.25)) == pytest.approx(8.0)


def test_constant_sample_returns_the_constant():
    values = np.full(50, math.log(2.5))
    assert math.exp(threshold_from_alpha(_sample(values, "M0"), 0.1)) == pytest.approx(2.5)
    assert math.exp(threshold_from_alpha(_sample(values, "M1"), 0.1)) == pytest.approx(2.5)


def test_threshold_round_trips_to_alpha(pair_80x8):
    m0, m1 = pair_80x8
    t_count = m0.t_count
    for alpha in (0.01, 0.05, 0.1):
        inv_k1 = math.exp(threshold_from_alpha(m0, alpha))
        probs = classify(m0, m1, Thresholds(k0=math.inf, inv_k1=inv_k1), pi0=0.5)
        assert abs(probs.p0_m - alpha) <= 1.0 / t_count + 1e-12


def test_threshold_monotone_in_alpha(pair_80x8):
    m0, m1 = pair_80x8
    lowers = [threshold_from_alpha(m0, a) for a in (0.01, 0.05, 0.2, 0.4)]
    uppers = [threshold_from_alpha(m1, a) for a in (0.01, 0.05, 0.2, 0.4)]
    assert np.all(np.diff(lowers) >= 0)
    assert np.all(np.diff(uppers) <= 0)


def test_alpha_domain_checked(pair_80x8):
    m0, _ = pair_80x8
    for alpha in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            threshold_from_alpha(m0, alpha)


def test_detection_threshold_at_benchmark_design():
    # full-scale lower cutoff for alpha = 0.01 at n=100, m=8
    prior_a = AnalysisPriorSample.draw(ANALYSIS, 10_000, seed=20260809)
    sample = simulate_bf_m0(DesignPoint(100, 8), prior_a, 50_000, 20260809)
    inv_k1 = math.exp(threshold_from_alpha(sample, 0.01))
    assert inv_k1 == pytest.approx(0.215, abs=0.015)


def test_null_support_threshold_at_benchmark_design():
    # full-scale upper cutoff for alpha = 0.01 under heterogeneity at n=158, m=8
    design = DesignPoint(158, 8)
    prior_a = AnalysisPriorSample.draw(ANALYSIS, 10_000, seed=20260809)
    prior_d = DesignPriorSample.draw(DESIGN_PRIOR, 50_000, seed=20260809)
    sample = simulate_bf_m1(design, prior_a, prior_d, 20260809)
    k0 = math.exp(threshold_from_alpha(sample, 0.01))
    assert k0 == pytest.approx(2.015, abs=0.1)


def test_probs_dict_is_json_ready(pair_80x8):
    m0, m1 = pair_80x8
    th = Thresholds(k0=3.0, inv_k1=1 / 3, alpha=0.05)
    probs = classify(m0, m1, th, pi0=0.5)
    payload = probs_to_dict(probs, th)
    text = json.dumps(payload)
    assert "thresholds" in payload and payload["thresholds"]["alpha"] == 0.05
    assert payload["thresholds"]["derivation"] == "from_alpha"
    assert probs_to_dict(probs, Thresholds(3.0, 1 / 3))["thresholds"]["derivation"] == "fixed"
    assert payload["se"]["p1_c"] == pytest.approx(
        math.sqrt(probs.p1_c * (1 - probs.p1_c) / probs.t_count))
    assert json.loads(text)["pi0"] == 0.5
