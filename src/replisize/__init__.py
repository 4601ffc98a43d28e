"""Bayesian design calculations for multi-site replication experiments.

Computes the Bayes factor testing between-site heterogeneity of effect
sizes, simulates its prior predictive distribution under competing models,
classifies the resulting evidence, and searches for the smallest per-site
sample size meeting conditional or unconditional design criteria.
"""

__version__ = "0.1.0"

from .bayes_factor import (
    AnalysisPriorSample,
    bf01_from_data,
    log_bf01,
    log_bf01_quadrature,
    log_m0,
    log_m1_mc,
    log_m1_quadrature,
)
from .distributions import ChiSquared, FoldedT, HalfT, prior_from_dict, prior_to_dict
from .evidence import EvidenceProbs, Thresholds, classify, probs_to_dict, threshold_from_alpha
from .model import (
    DesignPoint,
    compute_q,
    load_effect_sizes,
    simulate_effect_sizes,
)
from .predictive import (
    DesignPriorSample,
    LogBfSample,
    load_logbf_csv,
    save_logbf_csv,
    simulate_bf_m0,
    simulate_bf_m1,
)
from .ssd import (
    CostSpec,
    GapEval,
    InfeasibleTargetError,
    Priors,
    SimSizes,
    SsdResult,
    SsdTarget,
    cost_select,
    criterion_gap,
    find_n_star,
    sweep_m,
)

__all__ = [
    "__version__",
    "AnalysisPriorSample",
    "ChiSquared",
    "CostSpec",
    "DesignPoint",
    "DesignPriorSample",
    "EvidenceProbs",
    "FoldedT",
    "GapEval",
    "HalfT",
    "InfeasibleTargetError",
    "LogBfSample",
    "Priors",
    "SimSizes",
    "SsdResult",
    "SsdTarget",
    "Thresholds",
    "bf01_from_data",
    "classify",
    "compute_q",
    "cost_select",
    "criterion_gap",
    "find_n_star",
    "load_effect_sizes",
    "load_logbf_csv",
    "log_bf01",
    "log_bf01_quadrature",
    "log_m0",
    "log_m1_mc",
    "log_m1_quadrature",
    "prior_from_dict",
    "prior_to_dict",
    "probs_to_dict",
    "save_logbf_csv",
    "simulate_bf_m0",
    "simulate_bf_m1",
    "simulate_effect_sizes",
    "sweep_m",
    "threshold_from_alpha",
]
