"""Prior and driver distributions for the heterogeneity design calculations.

Two families cover everything the package needs:

* ``FoldedT`` -- the absolute value of a location/scale Student-t, used as
  the informative design prior on the relative heterogeneity
  gamma = tau/sigma.  ``HalfT``, the weakly informative analysis prior, *is*
  ``FoldedT`` with the location fixed at 0: a subclass that only pins
  ``mu`` and keeps the (nu, sigma) constructor.
* ``ChiSquared`` -- sampling distribution of the dispersion statistic Q
  under the no-heterogeneity model.

All objects are immutable and safe to share across threads.  Sampling
always takes an explicit seed or Generator; there is no hidden global RNG.

Sampling needs only numpy.  SciPy is imported inside ``pdf``, ``cdf`` and
``quantile``, the only methods that use it, so a process that only samples
(every CLI subcommand) never pays SciPy's import time or memory.
"""

from dataclasses import dataclass, field

import numpy as np

from .seeding import as_generator

__all__ = ["HalfT", "FoldedT", "ChiSquared", "prior_from_dict", "prior_to_dict"]


def _validate_count(count):
    if count < 1:
        raise ValueError(f"sample count must be >= 1, got {count}")


@dataclass(frozen=True)
class FoldedT:
    """Absolute value of a Student-t variate with location mu and scale sigma.

    parameters
    ----------
    nu: float
        Degrees of freedom, finite and >= 0.1.  Small values give a heavy
        upper tail.  numpy's t draw overflows when its Gamma(nu/2) variate
        underflows, about 10**(-161.7 nu) of draws: 2.4 % at 0.01, 1e-16 at 0.1.
    mu: float
        Location, >= 0.
    sigma: float
        Scale, > 0.  Dimensionless here because gamma is a ratio of
        standard deviations.
    """

    nu: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not 0.1 <= self.nu < np.inf:
            raise ValueError(f"nu must be finite and >= 0.1, got {self.nu}")
        if not 0 < self.sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not 0 <= self.mu < np.inf:
            raise ValueError(f"mu must be nonnegative and finite, got {self.mu}")

    def pdf(self, x):
        from scipy import stats

        x = np.asarray(x, dtype=float)
        lo = stats.t.pdf((x - self.mu) / self.sigma, self.nu)
        hi = stats.t.pdf((x + self.mu) / self.sigma, self.nu)
        out = np.where(x < 0, 0.0, (lo + hi) / self.sigma)
        return out if out.ndim else float(out)

    def cdf(self, x):
        from scipy import stats

        x = np.asarray(x, dtype=float)
        # P(|mu + sigma*T| <= x) = F_T((x-mu)/sigma) - F_T((-x-mu)/sigma)
        upper = stats.t.cdf((x - self.mu) / self.sigma, self.nu)
        lower = stats.t.cdf((-x - self.mu) / self.sigma, self.nu)
        out = np.where(x < 0, 0.0, upper - lower)
        return out if out.ndim else float(out)

    def sample(self, count, rng):
        """Draw ``count`` values as |mu + sigma * T_nu|."""
        _validate_count(count)
        rng = as_generator(rng)
        return np.abs(self.mu + self.sigma * rng.standard_t(self.nu, size=count))

    def quantile(self, p):
        """Invert the cdf by bracketing + Brent to absolute tolerance 1e-8."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile probability must lie in (0, 1), got {p}")
        from scipy import optimize

        # Student-t tails decay polynomially; 50 scales past the location is
        # far past anything asked for, and the bracket doubles if it is not.
        hi = self.mu + 50.0 * self.sigma
        while self.cdf(hi) < p:
            hi *= 2.0
        return float(optimize.brentq(lambda x: self.cdf(x) - p, 0.0, hi, xtol=1e-8))


@dataclass(frozen=True)
class HalfT(FoldedT):
    """``FoldedT`` centred at zero: built as HalfT(nu, sigma), mu is always 0."""

    mu: float = field(default=0.0, init=False, repr=False)

    # Bound here as well so that HalfT.__dict__ holds it: tracers that patch
    # methods per class (perfbench) count prior draws under this name.
    sample = FoldedT.sample


@dataclass(frozen=True)
class ChiSquared:
    """Chi-squared with integer degrees of freedom (here df = m - 1)."""

    df: int

    def __post_init__(self):
        if int(self.df) != self.df or self.df < 1:
            raise ValueError(f"df must be a positive integer, got {self.df}")

    def cdf(self, x):
        from scipy import stats

        x = np.asarray(x, dtype=float)
        out = stats.chi2.cdf(x, self.df)
        return out if out.ndim else float(out)

    def sample(self, count, rng):
        _validate_count(count)
        rng = as_generator(rng)
        return rng.chisquare(self.df, size=count)


def prior_to_dict(prior):
    """JSON-ready description: {"family", "nu", "mu", "sigma"} (mu only if folded)."""
    if isinstance(prior, HalfT):
        return {"family": "half_t", "nu": prior.nu, "sigma": prior.sigma}
    if isinstance(prior, FoldedT):
        return {"family": "folded_t", "nu": prior.nu, "mu": prior.mu, "sigma": prior.sigma}
    raise TypeError(f"not a prior distribution: {prior!r}")


def _number(key, value):
    """The ``value`` of config field ``key`` as a float; a JSON boolean is
    not a number here."""
    if isinstance(value, bool):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def prior_from_dict(spec):
    """Build a HalfT or FoldedT from its JSON object form."""
    try:
        family = spec["family"]
    except (TypeError, KeyError):
        raise ValueError("prior specification must be an object with a 'family' key")
    if family == "half_t":
        if _number("mu", spec.get("mu", 0.0)) != 0.0:
            raise ValueError("half_t priors have no location; use folded_t")
        return HalfT(nu=_number("nu", spec["nu"]), sigma=_number("sigma", spec["sigma"]))
    if family == "folded_t":
        return FoldedT(nu=_number("nu", spec["nu"]), mu=_number("mu", spec.get("mu", 0.0)),
                       sigma=_number("sigma", spec["sigma"]))
    raise ValueError(f"unknown prior family {family!r} (expected 'half_t' or 'folded_t')")
