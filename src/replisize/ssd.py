"""Optimal per-site sample size n* for a given number of sites m.

The conditional criterion asks for the smallest n whose probability of
correct evidence for heterogeneity reaches the target power, while the
misleading rate under no heterogeneity is pinned to alpha by deriving
1/k1 as a predictive quantile.  The unconditional criterion applies the
same structure to the overall (model-averaged) probabilities, deriving k0
from the predictive distribution under heterogeneity as well.

All Monte Carlo inputs for one search are drawn once from the master seed
(common random numbers), which makes the criterion gap a deterministic
function of n; the search is a Regula Falsi bracket refinement rounded to
integers, with a bisection fallback against stalling.

The search rests on one assumption: computed log BF01 is strictly
decreasing over the realised Q draws.  Each calibrated cutoff is log BF01
at an order statistic of Q, carried in log space from the calibration to
``classify``, so every count ``classify`` makes is a count of Q draws
beyond an order statistic.  Two properties follow.

* The gap is non-decreasing in n.  Under M1, q1(n) = q0 (1 + n gamma^2)
  grows elementwise with n while the M0 order statistic q* behind 1/k1
  stays fixed, so #{q1(n) > q*} never falls; the order statistic of q1(n)
  behind k0 grows too, so #{q0 < q_k0(n)} never falls while q_k0(n) lies
  below q*.  Once q_k0(n) passes q*, the pair overlaps (k0 < 1/k1) and
  both counts stay at their largest values, #{q0 < q*} and the number of
  q1(n) above q_k0(n): the gap's plateau at large n is flat.
* n* does not depend on the analysis prior.  The prior sets the value of
  each cutoff, not which Q draws fall beyond it, so n*, the number of
  evaluations and p0_c, p1_c and p_c are the same under any analysis prior;
  only the reported 1/k1 and k0 change.
"""

import logging
import math
import time
from dataclasses import dataclass

from .bayes_factor import AnalysisPriorSample, log_bf01
from .evidence import PROB_NAMES, Thresholds, classify, threshold_from_alpha
from .model import DesignPoint
from .predictive import DesignPriorSample, LogBfSample, draw_q0, q1_from_q0
from .seeding import STREAM_SWEEP, derive_seed

__all__ = [
    "SsdTarget",
    "CostSpec",
    "Priors",
    "SimSizes",
    "GapEval",
    "SsdResult",
    "InfeasibleTargetError",
    "criterion_gap",
    "find_n_star",
    "sweep_m",
    "cost_select",
]

log = logging.getLogger(__name__)

# The bracket search starts at N_INIT and gives up past N_MAX subjects per site.
N_INIT = 10
N_MAX = 10**6


class InfeasibleTargetError(RuntimeError):
    """The bracket search hit its cap without reaching the target."""

    n_max = N_MAX

    def __init__(self, m, last_gap):
        self.m = m
        self.last_gap = last_gap
        super().__init__(
            f"target not reachable for m={m} within n <= {N_MAX} "
            f"(gap at cap: {last_gap:+.4f})")


@dataclass(frozen=True)
class SsdTarget:
    """Design goal: error rate alpha, power 1-beta, and (unconditional
    mode only) the prior probability pi0 of the no-heterogeneity model."""

    mode: str  # "conditional" or "unconditional"
    alpha: float
    power: float
    pi0: float = 0.5

    def __post_init__(self):
        if self.mode not in ("conditional", "unconditional"):
            raise ValueError(f"mode must be 'conditional' or 'unconditional', "
                             f"got {self.mode!r}")
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        if not 0.5 < self.power < 1.0:
            raise ValueError(f"power must lie in (0.5, 1), got {self.power}")
        if not 0.0 <= self.pi0 <= 1.0:
            raise ValueError(f"pi0 must lie in [0, 1], got {self.pi0}")


@dataclass(frozen=True)
class CostSpec:
    """Per-subject cost c1 and per-laboratory cost c2."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (0 <= self.c1 < math.inf and 0 <= self.c2 < math.inf):
            raise ValueError("costs must be nonnegative and finite")
        if self.c1 == 0 and self.c2 == 0:
            raise ValueError("at least one cost component must be positive")

    def total(self, n, m):
        return m * (self.c1 * n + self.c2)


@dataclass(frozen=True)
class Priors:
    analysis: object
    design: object


@dataclass(frozen=True)
class SimSizes:
    s: int = 10_000
    t_count: int = 50_000

    def __post_init__(self):
        if self.s < 1 or self.t_count < 1:
            raise ValueError("simulation sizes must be positive")


@dataclass(frozen=True)
class GapEval:
    """Criterion gap at one n, plus the thresholds and probabilities it used."""

    n: int
    gap: float
    thresholds: Thresholds
    probs: object


@dataclass(frozen=True)
class SsdResult:
    m: int
    n_star: int
    thresholds: Thresholds
    probs: object
    evaluations: int
    seed: int


class _GapEvaluator:
    """Shared-draw evaluation of the criterion gap across candidate n.

    The analysis-prior sample, design-prior sample and chi-squared driver
    are drawn once from the master seed; every candidate n reuses them, so
    gap(n) is a deterministic function of n.  Evaluations are cached.
    """

    def __init__(self, m, target, priors, sim_sizes, master_seed, workers=1):
        if m < 3:
            raise ValueError(f"sample size searches need m >= 3, got m={m}")
        self.m = m
        self.target = target
        self.workers = workers
        self.prior_a = AnalysisPriorSample.draw(priors.analysis, sim_sizes.s,
                                                master_seed)
        self.prior_d = DesignPriorSample.draw(priors.design, sim_sizes.t_count,
                                              master_seed)
        self.q0, _ = draw_q0(m, sim_sizes.t_count, master_seed)
        self.cache = {}

    def __call__(self, n):
        if n not in self.cache:
            self.cache[n] = self._evaluate(int(n))
        return self.cache[n]

    def _evaluate(self, n):
        design = DesignPoint(n=n, m=self.m)
        lb0 = log_bf01(self.q0, design, self.prior_a, workers=self.workers)
        lb1 = log_bf01(q1_from_q0(self.q0, n, self.prior_d.gammas), design,
                       self.prior_a, workers=self.workers)
        sample0 = LogBfSample(values=lb0, model="M0", design=design, s=self.prior_a.s)
        sample1 = LogBfSample(values=lb1, model="M1", design=design, s=self.prior_a.s)

        alpha = self.target.alpha
        log_inv_k1 = threshold_from_alpha(sample0, alpha)
        log_k0 = (math.inf if self.target.mode == "conditional"
                  else threshold_from_alpha(sample1, alpha))
        th = Thresholds.from_log(log_k0, log_inv_k1, alpha)
        probs = classify(sample0, sample1, th, self.target.pi0)
        achieved = probs.p1_c if self.target.mode == "conditional" else probs.p_c
        return GapEval(n=n, gap=achieved - self.target.power,
                       thresholds=th, probs=probs)


def criterion_gap(n, m, target, priors, sim_sizes, master_seed):
    """Gap between achieved and targeted probability of correct evidence at
    one candidate n.  Nonnegative means the design criterion is met."""
    return _GapEvaluator(m, target, priors, sim_sizes, master_seed)(n)


def find_n_star(m, target, priors, sim_sizes, master_seed=0, *, workers=1):
    """Smallest n meeting the design criterion for m sites, in three phases.

    * Halve from N_INIT while the target is met and n > 1.  If even n = 1
      meets it, the bracket closes there.
    * Double while the target is not met; raise InfeasibleTargetError when
      the gap is still negative at N_MAX.
    * Shrink the bracket (lo not met, hi met) by integer-rounded Regula
      Falsi interpolation, falling back to bisection when the same endpoint
      is replaced twice in a row, until it has width 1.  n* is its top.
    """
    gap = _GapEvaluator(m, target, priors, sim_sizes, master_seed,
                        workers=workers)

    hi_eval = lo_eval = gap(N_INIT)
    while lo_eval.gap >= 0 and lo_eval.n > 1:
        hi_eval, lo_eval = lo_eval, gap(lo_eval.n // 2)
    if lo_eval.gap >= 0:
        hi_eval = lo_eval  # n = 1 meets the target
    while hi_eval.gap < 0:
        if hi_eval.n >= N_MAX:
            raise InfeasibleTargetError(m, hi_eval.gap)
        lo_eval, hi_eval = hi_eval, gap(min(2 * hi_eval.n, N_MAX))

    last_met, repeats = None, 0
    while hi_eval.n - lo_eval.n > 1:
        if repeats >= 2:
            cand_n = (lo_eval.n + hi_eval.n) // 2
            repeats = 0
        else:
            frac = lo_eval.n - lo_eval.gap * (hi_eval.n - lo_eval.n) / (
                hi_eval.gap - lo_eval.gap)
            cand_n = min(max(round(frac), lo_eval.n + 1), hi_eval.n - 1)
        cand = gap(cand_n)
        met = cand.gap >= 0
        if met:
            hi_eval = cand
        else:
            lo_eval = cand
        repeats = repeats + 1 if met == last_met else 1
        last_met = met
    return SsdResult(m=m, n_star=hi_eval.n, thresholds=hi_eval.thresholds,
                     probs=hi_eval.probs, evaluations=len(gap.cache),
                     seed=int(master_seed))


def sweep_m(m_values, target, priors, sim_sizes, master_seed, *, workers=1):
    """find_n_star for each m, with an independent per-m seed derivation.

    Results come back ordered by m, one per distinct m.  An infeasible m is
    reported via the module logger and skipped; the sweep continues.
    """
    results = []
    for m in sorted(set(m_values)):
        seed_m = derive_seed(master_seed, STREAM_SWEEP, m)
        started = time.perf_counter()
        try:
            result = find_n_star(m, target, priors, sim_sizes,
                                 master_seed=seed_m, workers=workers)
        except InfeasibleTargetError as err:
            log.warning("m=%d: %s", m, err)
            continue
        elapsed = time.perf_counter() - started
        log.info("m=%d: n*=%d after %d evaluations (%.1f s)",
                 m, result.n_star, result.evaluations, elapsed)
        results.append(result)
    return results


def cost_select(results, cost):
    """Cheapest design among per-m optima under total cost m*(c1*n + c2).

    Ties break toward fewer sites, then fewer subjects per site.
    """
    if not results:
        raise ValueError("no results to select from")
    best = min(results, key=lambda r: (cost.total(r.n_star, r.m), r.m, r.n_star))
    return best, cost.total(best.n_star, best.m)


RESULT_COLUMNS = ["m", "n_star", "inv_k1", "k0", *PROB_NAMES, "evaluations", "seed"]


def result_to_row(result):
    """Flatten an SsdResult into the tabular schema (k0 empty when the
    conditional criterion left it unset)."""
    th, probs = result.thresholds, result.probs
    return {
        "m": result.m,
        "n_star": result.n_star,
        "inv_k1": th.inv_k1,
        "k0": th.k0 if math.isfinite(th.k0) else None,
        **{name: getattr(probs, name) for name in PROB_NAMES},
        "evaluations": result.evaluations,
        "seed": result.seed,
    }
