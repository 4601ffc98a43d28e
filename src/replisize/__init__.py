"""Bayesian design calculations for multi-site replication experiments.

Computes the Bayes factor testing between-site heterogeneity of effect
sizes, simulates its prior predictive distribution under competing models,
classifies the resulting evidence, and searches for the smallest per-site
sample size meeting conditional or unconditional design criteria.
"""

__version__ = "0.1.0"

# Each module's __all__ is the one declaration of its public names; the
# package republishes them.  __version__ is bound first: predictive reads it.
from . import bayes_factor, distributions, evidence, model, predictive, ssd
from .bayes_factor import *
from .distributions import *
from .evidence import *
from .model import *
from .predictive import *
from .ssd import *

__all__ = ["__version__", *bayes_factor.__all__, *distributions.__all__, *evidence.__all__,
           *model.__all__, *predictive.__all__, *ssd.__all__]
