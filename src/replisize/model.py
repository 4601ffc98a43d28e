"""Data model of a balanced multi-site replication design.

Each of m sites enrolls n subjects and reports an effect-size estimate t_j.
Site estimates are modelled as normal around a common mean, with
between-site spread controlled by the relative heterogeneity
gamma = tau/sigma.  All evidence about heterogeneity flows through the
dispersion statistic Q = n * sum((t_j - tbar)^2) / sigma^2.
"""

from dataclasses import dataclass

import numpy as np

from .seeding import as_generator

__all__ = [
    "DesignPoint",
    "compute_q",
    "simulate_effect_sizes",
    "load_effect_sizes",
]


@dataclass(frozen=True)
class DesignPoint:
    """Subjects per site (n) and number of sites (m)."""

    n: int
    m: int

    def __post_init__(self):
        # the kernel computes in float64, which holds every integer below 2**53
        if int(self.n) != self.n or not 1 <= self.n < 2**53:
            raise ValueError(f"n must be an integer in [1, 2**53), got {self.n}")
        if int(self.m) != self.m or not 2 <= self.m < 2**53:
            raise ValueError(f"m must be an integer in [2, 2**53), got {self.m}")


def _check_sigma(sigma):
    if not 0 < sigma < np.inf:  # written so that NaN fails too
        raise ValueError(f"sigma must be positive, got {sigma}")


def _validated_effects(t):
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"effect sizes must be a 1-d vector, got shape {t.shape}")
    if t.size < 2:
        raise ValueError(f"need at least 2 sites to measure dispersion, got {t.size}")
    if not np.all(np.isfinite(t)):
        raise ValueError("effect sizes contain non-finite entries")
    return t


def compute_q(t, n, sigma):
    """Dispersion statistic Q = n * sum((t_j - tbar)^2) / sigma^2.

    Zero exactly when all site estimates coincide; invariant under a common
    shift of every t_j and under joint rescaling of (t, sigma).
    """
    t = _validated_effects(t)
    if not n >= 1:  # written so that NaN fails too
        raise ValueError(f"n must be >= 1, got {n}")
    _check_sigma(sigma)
    centered = t - t.mean()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = float(n * np.dot(centered, centered) / (sigma * sigma))
    if not np.isfinite(q):  # sigma^2 underflowed or the sum of squares overflowed
        raise ValueError(f"Q is not finite at n={n}, sigma={sigma}")
    return q


def simulate_effect_sizes(design, gamma, mu, rng, *, sigma=1.0):
    """Draw one vector of m site estimates.

    Marginally over the site effects, t_j ~ N(mu, sigma^2 * (1/n + gamma^2))
    independently; gamma = 0 generates under the no-heterogeneity model.
    sigma is the known unit standard deviation.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    _check_sigma(sigma)
    rng = as_generator(rng)
    sd = sigma * np.sqrt(1.0 / design.n + gamma * gamma)
    return rng.normal(loc=mu, scale=sd, size=design.m)


def load_effect_sizes(path):
    """Read site effect sizes from a one-column CSV (optional 't' header)."""
    values = []
    with open(path, newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
            cell = raw.split(",")[0].strip()
            if not cell:
                continue
            try:
                values.append(float(cell))
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise ValueError(f"{path}:{line_no}: not a number: {cell!r}") from None
    if not values:
        raise ValueError(f"{path}: no effect sizes found")
    return _validated_effects(values)
