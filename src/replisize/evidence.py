"""Classification of BF01 draws into correct, misleading and undetermined
evidence, and threshold derivation from target error rates.

Evidence for M0 means BF01 > k0; evidence for M1 means BF01 < 1/k1; between
the cutoffs the outcome is undetermined.  Which side counts as correct
depends on the generating model.  Both the six conditional probabilities
and the three overall probabilities (weighted by the prior model
probability pi0) are reported.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Thresholds", "EvidenceProbs", "classify", "threshold_from_alpha",
           "probs_to_dict"]

# The nine probabilities of an EvidenceProbs, in reporting order.
PROB_NAMES = ("p0_c", "p0_m", "p0_u", "p1_c", "p1_m", "p1_u", "p_c", "p_m", "p_u")


@dataclass(frozen=True)
class Thresholds:
    """Evidence cutoffs: k0 favours M0, inv_k1 (= 1/k1) favours M1.

    ``alpha`` is the error rate in (0, 0.5) the pair was derived from via
    predictive quantiles, or None for a pair fixed directly.  A fixed pair
    must leave an undetermined region (inv_k1 < k0); a derived pair may
    overlap, and ``classify`` then leaves the overlap undetermined.

    ``classify`` compares log BF01 against ``log_k0`` and ``log_inv_k1``:
    the logs of k0 and inv_k1, or for a pair built by ``from_log`` the log
    cutoffs themselves, whose exponentials k0 and inv_k1 may underflow to 0.
    A log cutoff given with its value must exponentiate to exactly that value.
    """

    k0: float
    inv_k1: float
    alpha: float | None = None
    log_k0: float | None = field(default=None, repr=False)
    log_inv_k1: float | None = field(default=None, repr=False)

    @classmethod
    def from_log(cls, log_k0, log_inv_k1, alpha):
        """Pair derived at error rate ``alpha`` from log cutoffs."""
        return cls(float(np.exp(log_k0)), float(np.exp(log_inv_k1)), alpha,
                   log_k0, log_inv_k1)

    def __post_init__(self):
        if self.alpha is not None and not 0.0 < self.alpha < 0.5:
            raise ValueError(f"alpha must lie in (0, 0.5), got {self.alpha}")
        for name in ("k0", "inv_k1"):
            value, log_value = getattr(self, name), getattr(self, "log_" + name)
            if log_value is not None and float(np.exp(log_value)) != value:
                raise ValueError(f"log_{name}={log_value} contradicts {name}={value}")
        if self.log_k0 is None:
            if not self.k0 > 0:
                raise ValueError(f"k0 must be positive, got {self.k0}")
            object.__setattr__(self, "log_k0", float(np.log(self.k0)))
        if self.log_inv_k1 is None:
            if not self.inv_k1 > 0 or not math.isfinite(self.inv_k1):
                raise ValueError(f"inv_k1 must be positive and finite, got {self.inv_k1}")
            object.__setattr__(self, "log_inv_k1", float(np.log(self.inv_k1)))
        if self.alpha is None and self.degenerate:
            raise ValueError(
                f"degenerate fixed thresholds (inv_k1={self.inv_k1} >= k0={self.k0}) "
                "leave no undetermined region")

    @property
    def degenerate(self):
        return self.inv_k1 >= self.k0


@dataclass(frozen=True)
class EvidenceProbs:
    """Conditional and overall probabilities of correct (c), misleading (m)
    and undetermined (u) evidence under each generating model."""

    p0_c: float
    p0_m: float
    p0_u: float
    p1_c: float
    p1_m: float
    p1_u: float
    p_c: float
    p_m: float
    p_u: float
    pi0: float
    t_count: int

    @classmethod
    def from_counts(cls, correct0, misleading0, correct1, misleading1, t_count, pi0):
        """Probabilities of the draws counted as correct and misleading under
        M0 and M1, out of ``t_count`` draws each; the rest are undetermined."""
        t, pi1 = t_count, 1.0 - pi0
        p0_c, p0_m, p0_u = correct0 / t, misleading0 / t, (t - correct0 - misleading0) / t
        p1_c, p1_m, p1_u = correct1 / t, misleading1 / t, (t - misleading1 - correct1) / t
        return cls(p0_c=p0_c, p0_m=p0_m, p0_u=p0_u, p1_c=p1_c, p1_m=p1_m, p1_u=p1_u,
                   p_c=pi0 * p0_c + pi1 * p1_c, p_m=pi0 * p0_m + pi1 * p1_m,
                   p_u=pi0 * p0_u + pi1 * p1_u, pi0=pi0, t_count=t)


def classify(sample_m0, sample_m1, th, pi0):
    """Empirical evidence probabilities of two equal-size predictive samples.

    Cutoffs are compared strictly, so a draw exactly equal to either
    threshold counts as undetermined.  ``pi0`` weights the overall triple;
    the conditional triples do not depend on it.

    Only unambiguous draws count as evidence: above max(k0, inv_k1)
    favours M0, below min(k0, inv_k1) favours M1.  For non-degenerate
    thresholds this is the plain definition; for a derived pair that
    overlaps, the overlap stays undetermined.
    """
    if sample_m0.design != sample_m1.design:
        raise ValueError(
            f"design mismatch: {sample_m0.design} vs {sample_m1.design}")
    if sample_m0.model != "M0" or sample_m1.model != "M1":
        raise ValueError("classify expects an M0 sample and an M1 sample, in that order")
    if sample_m0.t_count != sample_m1.t_count:
        raise ValueError(f"sample size mismatch: {sample_m0.t_count} M0 draws "
                         f"vs {sample_m1.t_count} M1 draws")
    if not 0.0 <= pi0 <= 1.0:
        raise ValueError(f"pi0 must lie in [0, 1], got {pi0}")

    log_hi = max(th.log_k0, th.log_inv_k1)
    log_lo = min(th.log_k0, th.log_inv_k1)

    lb0, lb1 = sample_m0.values, sample_m1.values
    return EvidenceProbs.from_counts(
        int(np.count_nonzero(lb0 > log_hi)), int(np.count_nonzero(lb0 < log_lo)),
        int(np.count_nonzero(lb1 < log_lo)), int(np.count_nonzero(lb1 > log_hi)),
        sample_m0.t_count, pi0)


def _nearest_rank(p, t):
    # ceil(p*t) with a guard against floating noise pushing an exact
    # integer product over the next rank
    rank = math.ceil(p * t - 1e-9)
    return min(max(rank, 1), t)


def threshold_from_alpha(sample, alpha):
    """Log evidence cutoff pinning the misleading tail of a predictive BF01
    sample at alpha.

    An M0 sample gives log(1/k1) as the alpha-quantile of log BF01 (by
    construction P(BF01 < 1/k1) = alpha up to one empirical-quantile step);
    an M1 sample gives log k0 as the (1-alpha)-quantile.  Empirical quantile
    is nearest-rank, i.e. the ceil(p*T)-th order statistic.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    values = np.sort(sample.values)
    p = alpha if sample.model == "M0" else 1.0 - alpha
    rank = _nearest_rank(p, values.size)
    return float(values[rank - 1])


def probs_to_dict(probs, thresholds):
    """JSON-ready dict with all nine probabilities, pi0, thresholds and
    binomial Monte Carlo standard errors."""
    t = probs.t_count

    def se(p):
        return math.sqrt(p * (1.0 - p) / t)

    out = {name: getattr(probs, name) for name in PROB_NAMES}
    out["pi0"] = probs.pi0
    out["t_count"] = t
    out["se"] = {name: se(getattr(probs, name)) for name in PROB_NAMES}
    out["thresholds"] = {
        "k0": thresholds.k0 if math.isfinite(thresholds.k0) else None,
        "inv_k1": thresholds.inv_k1,
        "derivation": "fixed" if thresholds.alpha is None else "from_alpha",
        "alpha": thresholds.alpha,
        "degenerate": thresholds.degenerate,
    }
    return out
