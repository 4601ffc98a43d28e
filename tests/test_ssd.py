import logging
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replisize import ssd
from replisize.bayes_factor import log_bf01
from replisize.distributions import FoldedT, HalfT
from replisize.cli import read_results_csv
from replisize.evidence import EvidenceProbs, Thresholds, _nearest_rank
from replisize.model import DesignPoint
from replisize.predictive import (
    DesignPriorSample,
    draw_q0,
    q1_from_q0,
    simulate_bf_m0,
    simulate_bf_m1,
)
from replisize.seeding import STREAM_SWEEP, derive_seed
from replisize.ssd import (
    RESULT_COLUMNS,
    CostSpec,
    GapEval,
    InfeasibleTargetError,
    N_MAX,
    Priors,
    SimSizes,
    SsdResult,
    SsdTarget,
    cost_select,
    criterion_gap,
    find_n_star,
    result_to_row,
    sweep_m,
)

ANALYSIS = HalfT(nu=4, sigma=1 / 7)
DESIGN_PRIOR = FoldedT(nu=4, mu=0.2, sigma=1 / 55)
PRIORS = Priors(ANALYSIS, DESIGN_PRIOR)
SMALL = SimSizes(s=800, t_count=2000)
COND = SsdTarget("conditional", alpha=0.01, power=0.8)
UNCOND = SsdTarget("unconditional", alpha=0.01, power=0.8, pi0=0.5)
SEED = 424242


def test_target_validation():
    with pytest.raises(ValueError):
        SsdTarget("both", 0.01, 0.8)
    with pytest.raises(ValueError):
        SsdTarget("conditional", 0.6, 0.8)
    with pytest.raises(ValueError):
        SsdTarget("conditional", 0.01, 0.4)
    with pytest.raises(ValueError):
        SsdTarget("unconditional", 0.01, 0.8, pi0=1.4)


def test_sim_sizes_validation():
    for s, t_count in [(0, 10), (10, 0)]:
        with pytest.raises(ValueError, match="simulation sizes must be positive"):
            SimSizes(s, t_count)


def test_gap_is_deterministic_and_carries_diagnostics():
    a = criterion_gap(60, 8, COND, PRIORS, SMALL, SEED)
    b = criterion_gap(60, 8, COND, PRIORS, SMALL, SEED)
    assert a.gap == b.gap
    assert a.n == 60
    assert a.thresholds.inv_k1 == b.thresholds.inv_k1
    assert not math.isfinite(a.thresholds.k0)  # conditional mode leaves k0 open
    assert a.probs.p1_c == pytest.approx(a.gap + COND.power)


def test_unconditional_gap_uses_overall_probability():
    g = criterion_gap(120, 8, UNCOND, PRIORS, SMALL, SEED)
    assert math.isfinite(g.thresholds.k0)
    assert g.probs.p_c == pytest.approx(g.gap + UNCOND.power)
    assert g.probs.p_c == pytest.approx(
        0.5 * g.probs.p0_c + 0.5 * g.probs.p1_c, abs=1e-15)


def test_gap_nondecreasing_on_grid():
    gaps = [criterion_gap(n, 8, COND, PRIORS, SMALL, SEED).gap
            for n in (40, 60, 80, 100, 120)]
    assert all(g1 <= g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_gap_nondecreasing_on_the_overlap_plateau():
    # beyond 2 n* (n* = 150 here) the derived pair overlaps, k0 < 1/k1; with
    # the cutoffs compared in log space the gap stays flat there
    evals = [criterion_gap(n, 8, UNCOND, PRIORS, SMALL, SEED)
             for n in range(300, 3001, 300)]
    assert all(e.thresholds.degenerate for e in evals[1:])
    gaps = [e.gap for e in evals]
    assert all(g1 <= g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_gap_with_pointmass_design_prior_pins_alpha():
    # all design draws at ~0 make the two predictive samples coincide, so
    # the detection rate collapses to the pinned error rate
    flat = Priors(ANALYSIS, FoldedT(nu=4, mu=0.0, sigma=1e-12))
    for n in (10, 100):
        g = criterion_gap(n, 8, COND, flat, SMALL, SEED)
        assert g.gap < 0
        assert g.gap == pytest.approx(COND.alpha - COND.power,
                                      abs=2.0 / SMALL.t_count)


def test_underflowed_k0_classifies_by_its_log_cutoff():
    # above the p_c plateau n doubles until M1's (1 - alpha)-quantile of
    # log BF01 lies below -745, where exp(log k0) underflows to 0.  The log
    # cutoff still classifies, the cutoff draw itself counts as undetermined,
    # and the row reports k0 as 0
    target = SsdTarget("unconditional", alpha=0.01, power=0.995)
    sizes = SimSizes(s=300, t_count=800)
    g = criterion_gap(40_960, 8, target, PRIORS, sizes, 1)
    assert g.thresholds.k0 == 0.0 and g.thresholds.log_k0 < -745
    assert g.thresholds.log_k0 < g.thresholds.log_inv_k1
    rank = _nearest_rank(1.0 - target.alpha, sizes.t_count)
    assert g.probs.p1_c == (rank - 1) / sizes.t_count
    row = result_to_row(SsdResult(8, g.n, g.thresholds, g.probs, 1, 1))
    assert row["k0"] == 0.0


def test_gap_samples_equal_predictive_simulation(monkeypatch):
    # the search and the predictive export draw Q in one place: at the same
    # seed the search's M0/M1 log BF draws are the exported ones, bit for bit
    passes = []

    def recording_log_bf01(q, design, prior, *, workers=1):
        passes.append(log_bf01(q, design, prior, workers=workers))
        return passes[-1]

    monkeypatch.setattr(ssd, "log_bf01", recording_log_bf01)
    evaluator = ssd._GapEvaluator(8, UNCOND, PRIORS, SMALL, SEED)
    evaluator(60)
    design = DesignPoint(n=60, m=8)
    m0 = simulate_bf_m0(design, evaluator.prior_a, SMALL.t_count, SEED)
    m1 = simulate_bf_m1(design, evaluator.prior_a, evaluator.prior_d, SEED)
    assert len(passes) == 2
    assert np.array_equal(passes[0], m0.values)
    assert np.array_equal(passes[1], m1.values)


def _check_q_space_oracle(m, mu, seed, target):
    # log BF01 is non-increasing in q, so each alpha-calibrated cutoff is BF01
    # at an order statistic of q: 1/k1 at q*, the ceil(alpha T)-th largest q0,
    # and k0 at the ceil((1 - alpha) T)-th largest q1(n).  Every count is then
    # a count of q draws below lo or above hi, and a cutoff draw is never
    # beyond its own cutoff; no kernel call is needed to find n*
    priors = Priors(ANALYSIS, FoldedT(nu=4, mu=mu, sigma=1 / 55))
    sizes = SimSizes(s=600, t_count=1500)
    t = sizes.t_count
    evaluator = ssd._GapEvaluator(m, target, priors, sizes, seed)
    q_star = np.sort(evaluator.q0)[-_nearest_rank(target.alpha, t)]

    def probs(n):
        q1 = q1_from_q0(evaluator.q0, n, evaluator.prior_d.gammas)
        q_k0 = (-math.inf if target.mode == "conditional"  # k0 left at infinity
                else np.sort(q1)[-_nearest_rank(1.0 - target.alpha, t)])
        lo, hi = min(q_k0, q_star), max(q_k0, q_star)
        p0_c = np.count_nonzero(evaluator.q0 < lo) / t
        p0_m = np.count_nonzero(evaluator.q0 > hi) / t
        p1_c = np.count_nonzero(q1 > hi) / t
        p1_m = np.count_nonzero(q1 < lo) / t
        return p0_c, p0_m, p1_c, p1_m, target.pi0 * p0_c + (1.0 - target.pi0) * p1_c

    def gap(n):
        *_, p1_c, _, p_c = probs(n)
        return (p1_c if target.mode == "conditional" else p_c) - target.power

    n_star = find_n_star(m, target, priors, sizes, master_seed=seed).n_star
    assert gap(n_star) >= 0
    assert all(gap(n) < 0 for n in range(1, n_star))
    for n in (n_star - 1, n_star, n_star + 1, 2 * n_star):
        got = evaluator(n)
        p = got.probs
        assert (p.p0_c, p.p0_m, p.p1_c, p.p1_m, p.p_c) == probs(n)
        assert got.gap == gap(n)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mu", [0.1, 0.2])
@pytest.mark.parametrize("m", [3, 6, 12])
def test_conditional_search_matches_q_space_oracle(m, mu, seed):
    _check_q_space_oracle(m, mu, seed, COND)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("mu", [0.1, 0.2])
@pytest.mark.parametrize("m", [3, 6, 12])
def test_unconditional_search_matches_q_space_oracle(m, mu, seed):
    _check_q_space_oracle(m, mu, seed, UNCOND)


def _detection_sizes(q0, gammas, q_star):
    # per draw, the smallest n with q1(n) > q*: start from the closed form
    # n > (q*/q0 - 1) / gamma^2 and step until the float comparison flips;
    # inf for a draw that no n up to N_MAX + 1 detects
    def detected(n):
        return q1_from_q0(q0, n, gammas) > q_star

    with np.errstate(divide="ignore", invalid="ignore"):
        start = np.ceil((q_star / q0 - 1.0) / gammas**2)
    n = np.clip(np.nan_to_num(start, nan=N_MAX + 1), 1, N_MAX + 1)
    while (down := (n > 1) & detected(n - 1)).any():
        n[down] -= 1
    while (up := (n <= N_MAX) & ~detected(n)).any():
        n[up] += 1
    return np.where(detected(n), n, np.inf)


CLOSED_FORM_CASES = (
    [(m, mu, seed, 0.01, 0.8) for m in (3, 8, 12) for mu in (0.1, 0.2) for seed in range(4)]
    + [(m, mu, seed, 0.05, 0.9) for m in (3, 6, 17) for mu in (0.1, 0.2) for seed in range(2)]
    # design priors far from 0: n* from 1 to 20, mostly through the halving branch
    + [(m, mu, 0, 0.01, 0.8) for m in (17, 8, 3) for mu in (1.0, 3.0)]
)


@pytest.mark.parametrize("m, mu, seed, alpha, power", CLOSED_FORM_CASES)
def test_conditional_n_star_has_a_closed_form(m, mu, seed, alpha, power):
    # p1_c(n) = #{n_t <= n} / T for the per-draw detection sizes n_t, so n* is
    # the k-th smallest n_t, k the least count whose gap k/T - power is >= 0
    target = SsdTarget("conditional", alpha=alpha, power=power)
    priors = Priors(ANALYSIS, FoldedT(nu=4, mu=mu, sigma=1 / 55))
    sizes = SimSizes(s=600, t_count=1500)
    t = sizes.t_count
    q0, _ = draw_q0(m, t, seed)
    gammas = DesignPriorSample.draw(priors.design, t, seed).gammas
    q_star = np.sort(q0)[-_nearest_rank(alpha, t)]
    k = next(k for k in range(t + 1) if k / t - power >= 0)
    closed_form = np.sort(_detection_sizes(q0, gammas, q_star))[k - 1]
    assert find_n_star(m, target, priors, sizes, master_seed=seed).n_star == closed_form


def _q_space_gap(q0, gammas, n, target):
    # the gap from counts over sorted q, by the rule of _check_q_space_oracle
    t = q0.size
    q_star = np.sort(q0)[-_nearest_rank(target.alpha, t)]
    q1 = q1_from_q0(q0, n, gammas)
    q_k0 = (-math.inf if target.mode == "conditional"
            else np.sort(q1)[-_nearest_rank(1.0 - target.alpha, t)])
    lo, hi = min(q_k0, q_star), max(q_k0, q_star)
    p0_c = np.count_nonzero(q0 < lo) / t
    p1_c = np.count_nonzero(q1 > hi) / t
    p_c = target.pi0 * p0_c + (1.0 - target.pi0) * p1_c
    return (p1_c if target.mode == "conditional" else p_c) - target.power


@settings(max_examples=400, deadline=None)
@given(m=st.integers(3, 17), t_count=st.integers(100, 3000), seed=st.integers(0, 2**32),
       nu=st.floats(1.0, 30.0), mu=st.floats(0.0, 3.0), sigma=st.floats(1e-3, 1.0),
       alpha=st.floats(0.001, 0.499), power=st.floats(0.501, 0.999),
       pi0=st.floats(0.0, 1.0), mode=st.sampled_from(["conditional", "unconditional"]),
       ns=st.sets(st.integers(1, N_MAX), min_size=2, max_size=40))
def test_q_space_gap_is_nondecreasing_in_n(m, t_count, seed, nu, mu, sigma, alpha,
                                           power, pi0, mode, ns):
    # q1(n) grows elementwise with n, and so does each order statistic of it,
    # so no count the gap is made of can fall (ssd module docstring)
    target = SsdTarget(mode, alpha=alpha, power=power, pi0=pi0)
    q0, _ = draw_q0(m, t_count, seed)
    gammas = DesignPriorSample.draw(FoldedT(nu, mu, sigma), t_count, seed).gammas
    gaps = [_q_space_gap(q0, gammas, n, target) for n in sorted(ns)]
    assert all(g1 <= g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_m_below_three_rejected():
    with pytest.raises(ValueError, match="m >= 3"):
        criterion_gap(50, 2, COND, PRIORS, SMALL, SEED)
    with pytest.raises(ValueError, match="m >= 3"):
        find_n_star(2, COND, PRIORS, SMALL, master_seed=SEED)


@pytest.mark.parametrize("target", [COND, UNCOND])
def test_found_n_is_minimal_at_matched_seed(target):
    result = find_n_star(8, target, PRIORS, SMALL, master_seed=SEED)
    at = criterion_gap(result.n_star, 8, target, PRIORS, SMALL, SEED)
    before = criterion_gap(result.n_star - 1, 8, target, PRIORS, SMALL, SEED)
    assert at.gap >= 0
    assert before.gap < 0
    assert result.seed == SEED
    assert result.evaluations >= 3


@pytest.mark.parametrize("target", [COND, UNCOND])
def test_search_equals_exhaustive_scan(target):
    # the two design priors far from 0 meet the target below N_INIT, so the search
    # halves down from it, once all the way to n = 1
    for m, design in [(8, DESIGN_PRIOR), (17, FoldedT(nu=4, mu=1.0, sigma=1 / 55)),
                      (8, FoldedT(nu=4, mu=3.0, sigma=1 / 55))]:
        priors = Priors(ANALYSIS, design)
        result = find_n_star(m, target, priors, SMALL, master_seed=SEED)
        gaps = [criterion_gap(n, m, target, priors, SMALL, SEED).gap
                for n in range(1, 2 * result.n_star + 1)]
        # the gap is non-decreasing in n (ssd module docstring), which is why the
        # bracket search finds the first n meeting the target
        assert all(g1 <= g2 for g1, g2 in zip(gaps, gaps[1:]))
        exhaustive = 1 + next(i for i, g in enumerate(gaps) if g >= 0)
        assert result.n_star == exhaustive


def _reference_find_n_star(evaluator):
    # find_n_star's bracket-and-refine loop as it stood before it was written
    # as three phases, kept as the oracle for its order of evaluations;
    # returns the evaluation at n*
    lo_eval = evaluator(ssd.N_INIT)
    if lo_eval.gap >= 0:
        hi_eval = lo_eval
        while hi_eval.n > 1:
            cand = evaluator(hi_eval.n // 2)
            if cand.gap < 0:
                lo_eval = cand
                break
            hi_eval = cand
        else:
            return hi_eval
    else:
        while True:
            n_next = min(2 * lo_eval.n, N_MAX)
            hi_eval = evaluator(n_next)
            if hi_eval.gap >= 0:
                break
            if n_next >= N_MAX:
                raise InfeasibleTargetError(evaluator.m, hi_eval.gap)
            lo_eval = hi_eval

    last_side, repeats = 0, 0
    while hi_eval.n - lo_eval.n > 1:
        if repeats >= 2:
            cand_n = (lo_eval.n + hi_eval.n) // 2
            repeats = 0
        else:
            frac = lo_eval.n - lo_eval.gap * (hi_eval.n - lo_eval.n) / (
                hi_eval.gap - lo_eval.gap)
            cand_n = min(max(round(frac), lo_eval.n + 1), hi_eval.n - 1)
        cand = evaluator(cand_n)
        side = 1 if cand.gap >= 0 else -1
        if side > 0:
            hi_eval = cand
        else:
            lo_eval = cand
        repeats = repeats + 1 if side == last_side else 1
        last_side = side
    return hi_eval


class _RecordingEvaluator(ssd._GapEvaluator):
    """A _GapEvaluator that lists each n it evaluates, in call order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.order = []

    def _evaluate(self, n):
        self.order.append(n)
        return super()._evaluate(n)


def _search_outcome(search):
    # (result, None) from a search that ends, (None, last_gap) from one that gives up
    try:
        return search(), None
    except InfeasibleTargetError as err:
        return None, err.last_gap


# over both modes: 44 searches double from N_INIT, 16 halve and stop above
# n = 1, 12 halve down to n = 1, and the point mass (mu 0, sigma 1e-12) runs
# into N_MAX
REFERENCE_CASES = (
    [(target, FoldedT(nu=4, mu=mu, sigma=1 / 55), m, seed)
     for target in (COND, UNCOND) for mu in (0.05, 0.2, 1.0, 3.0)
     for m in (3, 8, 17) for seed in range(3)]
    + [(target, FoldedT(nu=4, mu=0.0, sigma=1e-12), 8, 0) for target in (COND, UNCOND)]
)


@pytest.mark.parametrize("target, design, m, seed", REFERENCE_CASES)
def test_search_evaluates_as_the_reference_loop(monkeypatch, target, design, m, seed):
    priors = Priors(ANALYSIS, design)
    sizes = SimSizes(s=300, t_count=800)
    searched = []

    def recording(*args, **kwargs):
        searched.append(_RecordingEvaluator(*args, **kwargs))
        return searched[-1]

    monkeypatch.setattr(ssd, "_GapEvaluator", recording)
    got = _search_outcome(lambda: find_n_star(m, target, priors, sizes, master_seed=seed))
    reference = _RecordingEvaluator(m, target, priors, sizes, seed)

    def reference_result():
        final = _reference_find_n_star(reference)
        return SsdResult(m=m, n_star=final.n, thresholds=final.thresholds,
                         probs=final.probs, evaluations=len(reference.cache), seed=seed)

    assert got == _search_outcome(reference_result)
    assert searched[0].order == reference.order


class _QSpaceEvaluator(ssd._GapEvaluator):
    """A _GapEvaluator that classifies in q space: each cutoff is log BF01 at
    an order statistic of Q (ssd module docstring), one one-row kernel call
    each, and every count is a count of q draws beyond those order statistics,
    turned into probabilities by classify's own arithmetic."""

    def _evaluate(self, n):
        design = DesignPoint(n=n, m=self.m)
        target, t = self.target, self.q0.size
        q1 = q1_from_q0(self.q0, n, self.prior_d.gammas)
        q_star = np.sort(self.q0)[-_nearest_rank(target.alpha, t)]
        log_inv_k1 = log_bf01(q_star, design, self.prior_a)
        q_k0, log_k0 = -math.inf, math.inf  # conditional: k0 left at infinity
        if target.mode == "unconditional":
            q_k0 = np.sort(q1)[-_nearest_rank(1.0 - target.alpha, t)]
            log_k0 = log_bf01(q_k0, design, self.prior_a)
        lo, hi = min(q_k0, q_star), max(q_k0, q_star)
        c0, m0 = np.count_nonzero(self.q0 < lo), np.count_nonzero(self.q0 > hi)
        c1, m1 = np.count_nonzero(q1 > hi), np.count_nonzero(q1 < lo)
        pi0, pi1 = target.pi0, 1.0 - target.pi0
        p0_c, p0_m, p0_u = c0 / t, m0 / t, (t - c0 - m0) / t
        p1_c, p1_m, p1_u = c1 / t, m1 / t, (t - m1 - c1) / t
        probs = EvidenceProbs(
            p0_c=p0_c, p0_m=p0_m, p0_u=p0_u, p1_c=p1_c, p1_m=p1_m, p1_u=p1_u,
            p_c=pi0 * p0_c + pi1 * p1_c, p_m=pi0 * p0_m + pi1 * p1_m,
            p_u=pi0 * p0_u + pi1 * p1_u, pi0=pi0, t_count=t)
        achieved = p1_c if target.mode == "conditional" else probs.p_c
        return GapEval(n, achieved - target.power,
                       Thresholds.from_log(log_k0, log_inv_k1, target.alpha), probs)


# The paper-default tables, written by
# ``replisize ssd --paper-defaults --m 3..17 [--override target.mode=unconditional]``
# while every search classified kernel log BF01 samples (two T x S passes per n)
PAPER_TABLES = Path(__file__).parent / "data"
PAPER_SIZES = SimSizes(s=10_000, t_count=50_000)
PAPER_SEED = 1729


def _paper_table(mode):
    return read_results_csv(PAPER_TABLES / f"paper_table_{mode}.csv")


@pytest.mark.parametrize("target", [COND, UNCOND], ids=["conditional", "unconditional"])
def test_paper_table_is_reproduced_in_q_space(monkeypatch, target):
    # every column, evaluations included: the q-space search takes the
    # kernel search's path at paper scale, without a T x S pass
    monkeypatch.setattr(ssd, "_GapEvaluator", _QSpaceEvaluator)
    results = sweep_m(range(3, 18), target, PRIORS, PAPER_SIZES, PAPER_SEED)
    assert [result_to_row(r) for r in results] == _paper_table(target.mode)


def test_kernel_evaluation_matches_the_paper_table():
    # one kernel evaluation at paper scale, at the table's last n*
    row = _paper_table("conditional")[-1]
    assert (row["m"], row["n_star"]) == (17, 49)
    found = ssd._GapEvaluator(17, COND, PRIORS, PAPER_SIZES, row["seed"])(49)
    result = SsdResult(m=17, n_star=49, thresholds=found.thresholds, probs=found.probs,
                       evaluations=row["evaluations"], seed=row["seed"])
    assert row["seed"] == derive_seed(PAPER_SEED, STREAM_SWEEP, 17)
    assert result_to_row(result) == row


@pytest.mark.parametrize("target", [COND, UNCOND])
@pytest.mark.parametrize("m", [3, 8])
def test_n_star_does_not_depend_on_the_analysis_prior(m, target):
    # the analysis prior sets the value of each cutoff, not which q draws
    # fall beyond it (ssd module docstring), so the search takes the same path
    sizes = SimSizes(s=600, t_count=1500)
    results = [find_n_star(m, target, Priors(analysis, DESIGN_PRIOR), sizes,
                           master_seed=0)
               for analysis in (ANALYSIS, HalfT(nu=1, sigma=1), HalfT(nu=30, sigma=0.01),
                                FoldedT(nu=4, mu=0.5, sigma=0.1))]
    first = results[0]
    for r in results[1:]:
        assert (r.n_star, r.evaluations) == (first.n_star, first.evaluations)
        assert ((r.probs.p0_c, r.probs.p1_c, r.probs.p_c)
                == (first.probs.p0_c, first.probs.p1_c, first.probs.p_c))
    assert len({r.thresholds.inv_k1 for r in results}) == len(results)


@pytest.mark.parametrize("target", [COND, UNCOND])
def test_search_is_identical_with_two_workers(target):
    # at SMALL one kernel pass is 13 chunks, so two workers split every pass
    one = find_n_star(8, target, PRIORS, SMALL, master_seed=SEED, workers=1)
    assert find_n_star(8, target, PRIORS, SMALL, master_seed=SEED, workers=2) == one


def test_unconditional_needs_more_subjects_than_conditional():
    for m in (8, 12):
        cond = find_n_star(m, COND, PRIORS, SMALL, master_seed=SEED)
        uncond = find_n_star(m, UNCOND, PRIORS, SMALL, master_seed=SEED)
        assert uncond.n_star >= cond.n_star


def test_n_star_nonincreasing_in_m():
    results = sweep_m([4, 6, 8, 10], COND, PRIORS, SMALL, SEED)
    ns = [r.n_star for r in results]
    assert [r.m for r in results] == [4, 6, 8, 10]
    assert all(a >= b for a, b in zip(ns, ns[1:]))


def test_design_prior_location_drives_n_star():
    sizes = SimSizes(s=1500, t_count=4000)
    n_stars = {}
    for mu in (0.1, 0.2, 0.3):
        priors = Priors(ANALYSIS, FoldedT(nu=4, mu=mu, sigma=1 / 55))
        n_stars[mu] = find_n_star(8, COND, priors, sizes, master_seed=SEED).n_star
    assert n_stars[0.1] > n_stars[0.2] > n_stars[0.3]


def test_detection_cutoff_stable_across_site_counts():
    results = sweep_m([6, 10, 14], COND, PRIORS, SimSizes(2000, 5000), SEED)
    cutoffs = [r.thresholds.inv_k1 for r in results]
    assert max(cutoffs) - min(cutoffs) < 0.05


def test_singleton_sweep_matches_direct_search():
    seed_m = derive_seed(SEED, STREAM_SWEEP, 8)
    direct = find_n_star(8, COND, PRIORS, SMALL, master_seed=seed_m)
    swept = sweep_m([8], COND, PRIORS, SMALL, SEED)
    assert len(swept) == 1
    assert swept[0] == direct


def test_infeasible_target_raises_with_last_gap():
    flat = Priors(ANALYSIS, FoldedT(nu=4, mu=0.0, sigma=1e-12))
    with pytest.raises(InfeasibleTargetError) as exc:
        find_n_star(8, COND, flat, SMALL, master_seed=SEED)
    assert exc.value.m == 8
    assert exc.value.n_max == N_MAX == 10**6
    assert exc.value.last_gap < 0


def test_sweep_skips_infeasible_m_and_continues(caplog):
    flat = Priors(ANALYSIS, FoldedT(nu=4, mu=0.0, sigma=1e-12))
    with caplog.at_level(logging.WARNING, logger="replisize.ssd"):
        results = sweep_m([6, 8], COND, flat, SMALL, SEED)
    assert results == []
    assert "m=6" in caplog.text and "m=8" in caplog.text


def _mock_result(n, m):
    return SsdResult(m=m, n_star=n, thresholds=None, probs=None,
                     evaluations=0, seed=0)


def test_sweep_searches_each_distinct_m_once(monkeypatch):
    searched = []

    def fake_search(m, *args, **kwargs):
        searched.append(m)
        return _mock_result(10, m)

    monkeypatch.setattr(ssd, "find_n_star", fake_search)
    results = sweep_m([8, 6, 8], COND, PRIORS, SMALL, SEED)
    assert searched == [6, 8]
    assert [r.m for r in results] == [6, 8]


def test_cost_select_reduces_to_subject_count_without_site_cost():
    results = [_mock_result(n, m) for n, m in [(100, 8), (71, 12), (52, 16)]]
    best, total = cost_select(results, CostSpec(c1=1.0, c2=0.0))
    assert (best.n_star, best.m) == (100, 8)  # 800 < 852 < 832
    assert total == 800


def test_cost_select_reduces_to_site_count_without_subject_cost():
    results = [_mock_result(n, m) for n, m in [(100, 8), (71, 12), (52, 16)]]
    best, total = cost_select(results, CostSpec(c1=0.0, c2=10.0))
    assert best.m == 8
    assert total == 80


def test_cost_select_matches_brute_force_on_reference_table():
    # per-m optima for one published design target (power 0.8, alpha 0.05)
    pairs = [(328, 3), (178, 4), (126, 5), (99, 6), (82, 7), (71, 8), (62, 9),
             (56, 10), (51, 11), (48, 12), (45, 13), (42, 14), (40, 15),
             (38, 16), (36, 17)]
    results = [_mock_result(n, m) for n, m in pairs]
    cost = CostSpec(c1=1.0, c2=100.0)
    best, total = cost_select(results, cost)
    brute = min(pairs, key=lambda nm: nm[1] * (1.0 * nm[0] + 100.0))
    assert (best.n_star, best.m) == brute
    assert total == brute[1] * (brute[0] + 100.0)


def test_cost_select_breaks_ties_toward_smaller_m():
    results = [_mock_result(20, 10), _mock_result(10, 20), _mock_result(25, 8)]
    best, _ = cost_select(results, CostSpec(c1=1.0, c2=0.0))
    assert best.m == 8  # all cost 200, prefer fewer sites
    with pytest.raises(ValueError):
        cost_select([], CostSpec(1.0, 1.0))
    with pytest.raises(ValueError):
        CostSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        CostSpec(-1.0, 2.0)


def test_result_rows_follow_schema():
    result = find_n_star(6, COND, PRIORS, SMALL, master_seed=SEED)
    row = result_to_row(result)
    assert list(row) == RESULT_COLUMNS
    assert row["k0"] is None  # conditional mode
    assert row["n_star"] == result.n_star
    uncond = find_n_star(6, UNCOND, PRIORS, SMALL, master_seed=SEED)
    assert result_to_row(uncond)["k0"] == uncond.thresholds.k0
