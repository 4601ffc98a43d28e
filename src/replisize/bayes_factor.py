"""Log-space evaluation of the heterogeneity Bayes factor BF01.

BF01 compares the no-heterogeneity model M0 against the heterogeneity model
M1 and depends on the data only through the dispersion statistic Q:

    log BF01(q) = log m0(q) - log m1(q)
    log m0(q)   = ((m-1)/2) * ln n - q/2
    log m1(q)   = log E_gamma[ (1/n + gamma^2)^((1-m)/2)
                               * exp(-q/2 / (1 + n*gamma^2)) ]

with the expectation over the analysis prior on gamma, estimated by a fixed
Monte Carlo sample.  Both marginals drop the factor common to the two
models (it cancels in the ratio), so individual marginal values are
reported only up to that documented constant.

Everything is carried in log space and combined by log-sum-exp: at the Q
magnitudes that arise under M1 for realistic designs the linear-space terms
underflow to zero in double precision.

A quadrature evaluation of log m1 is provided as an independent check of
the Monte Carlo path; it alone imports SciPy, and only when called.  Both
paths compute log BF01 as log m0 - log m1 from the one ``log_m0``:
``log_bf01`` with the Monte Carlo ``log_m1_mc``, ``log_bf01_quadrature``
with ``log_m1_quadrature``.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import DesignPoint, compute_q
from .seeding import STREAM_ANALYSIS, substream

__all__ = [
    "AnalysisPriorSample",
    "log_m0",
    "log_m1_mc",
    "log_bf01",
    "bf01_from_data",
    "log_m1_quadrature",
    "log_bf01_quadrature",
]

# Elements per kernel chunk: a 1 MiB float64 buffer, so the chunk plus the
# `a` and `b` vectors that every pass streams (2 x 80 KB at S = 1e4) fit a
# 2 MB L2 cache, and the six passes over a chunk (outer product, subtract,
# max, shift, exp, mean) run from cache rather than from memory.  A chunk
# is never less than 2 rows: at S = 1e5 that is a 1.6 MB buffer, which
# keeps glibc's trim threshold (twice the largest block freed) above the
# S-vector and two block buffers a one-row call allocates, so repeated
# one-row calls (``analyze``) reuse heap pages instead of handing them back
# to the OS and faulting them in again.  The chunk grid depends only on the
# sample size, never on worker count.
_CHUNK_ELEMS = 131_072

# Prior draws per block of a one-row call: its `a` and `b` block buffers and
# the block of the output S-vector it fills (3 x 200 KB) stay in L2 while
# the block is built, and the two block buffers are all a call allocates
# besides that S-vector.
_BLOCK = 25_000


@dataclass(frozen=True)
class AnalysisPriorSample:
    """Fixed Monte Carlo sample of size S from the analysis prior.

    The same sample (same seed) is reused across every q and every (n, m)
    in a run: common random numbers keep downstream searches deterministic
    and quantile curves smooth in n.  ``predictive.DesignPriorSample``
    shares this validated vector and differs only in its random stream.
    """

    gammas: np.ndarray

    def __post_init__(self):
        gammas = np.asarray(self.gammas, dtype=float)
        if gammas.ndim != 1 or gammas.size < 1:
            raise ValueError("prior sample must be a non-empty 1-d vector")
        if np.any(gammas < 0) or not np.all(np.isfinite(gammas)):
            raise ValueError("prior draws must be finite and nonnegative")
        object.__setattr__(self, "gammas", gammas)

    @classmethod
    def draw(cls, prior, s, seed):
        """Sample S values from ``prior`` on the analysis stream of ``seed``."""
        rng = substream(seed, STREAM_ANALYSIS)
        return cls(gammas=prior.sample(s, rng))

    @property
    def s(self):
        return self.gammas.size


def _as_q_array(q):
    """q as a float (any 0-d input) or a float array, checked finite and >= 0."""
    if np.ndim(q) == 0:
        q = float(q)
        if not 0.0 <= q < math.inf:  # written so that NaN fails too
            raise ValueError("q must be finite and nonnegative")
        return q
    q = np.asarray(q, dtype=float)
    if np.any(q < 0) or not np.all(np.isfinite(q)):
        raise ValueError("q must be finite and nonnegative")
    return q


def log_m0(q, design):
    """Log marginal under M0 (up to the shared constant): ((m-1)/2) ln n - q/2."""
    q = _as_q_array(q)
    out = 0.5 * (design.m - 1) * np.log(design.n) - 0.5 * q
    return out if out.ndim else float(out)


def _mixture_terms(design, gammas, a=None, b=None):
    """Slope/intercept arrays of the per-draw log integrand, linear in q.

    Writing u = n*gamma^2, each draw contributes
    a - q*b  with  a = ((m-1)/2) ln n - ((m-1)/2) log1p(u),  b = 0.5/(1+u).
    The log1p form keeps a draw at gamma = 0 bit-identical to log_m0's
    constant term, so a degenerate sample collapses BF01 to exactly 1.
    Both are built in place, in ``a`` and ``b`` when given (buffers the size
    of ``gammas``), else in two new vectors; there are no temporaries.
    """
    n, m = design.n, design.m
    b = np.multiply(n, gammas, out=b)
    b *= gammas
    a = np.log1p(b, out=a)
    a *= 0.5 * (1 - m)
    a += 0.5 * (m - 1) * np.log(n)
    b += 1.0
    np.divide(0.5, b, out=b)
    return a, b


def _log_mean_exp_rows(q, a, b, workers=1):
    """out[t] = log( mean_j exp(a[j] - q[t]*b[j]) ), chunked over t.

    Chunks are a fixed function of the sample size, and each chunk writes
    its own output slice, so results are bit-identical for any worker
    count.  Worker k runs chunks k, k + groups, ... in one reused buffer.
    """
    out = np.empty(q.shape)
    rows = max(2, _CHUNK_ELEMS // a.size)
    starts = range(0, q.size, rows)
    groups = max(1, min(workers, len(starts)))

    def run_group(k):
        buf = np.empty((min(rows, q.size), a.size))
        for i0 in starts[k::groups]:
            i1 = min(i0 + rows, q.size)
            w = buf[:i1 - i0]
            np.multiply.outer(q[i0:i1], b, out=w)
            np.subtract(a, w, out=w)
            mx = w.max(axis=1)
            w -= mx[:, None]
            np.exp(w, out=w)
            out[i0:i1] = mx + np.log(w.mean(axis=1))

    if groups == 1:
        run_group(0)
    else:
        with ThreadPoolExecutor(max_workers=groups) as pool:
            list(pool.map(run_group, range(groups)))
    return out


def _log_mean_exp_one(q, design, gammas):
    """log( mean_j exp(a[j] - q*b[j]) ) for one float q, built block by block.

    Bit-identical to a one-row ``_log_mean_exp_rows`` call: each block's
    ``a`` and ``b`` fill two reused block buffers and its a - q*b goes
    straight into one S-vector, so every element sees the same operations
    in the same order.  The max of the block maxima is the max over all
    draws, and the shift, exp and mean run over the whole vector, as there.
    """
    w = np.empty(gammas.size)
    size = min(_BLOCK, gammas.size)
    a, b = np.empty(size), np.empty(size)
    starts = range(0, gammas.size, _BLOCK)
    maxima = np.empty(len(starts))
    for k, j0 in enumerate(starts):
        j1 = min(j0 + _BLOCK, gammas.size)
        ak, bk = _mixture_terms(design, gammas[j0:j1], a[:j1 - j0], b[:j1 - j0])
        wk = w[j0:j1]
        np.multiply(q, bk, out=wk)
        np.subtract(ak, wk, out=wk)
        maxima[k] = wk.max()
    mx = maxima.max()
    w -= mx
    np.exp(w, out=w)
    return float(mx + np.log(w.mean()))


def log_m1_mc(q, design, prior, *, workers=1):
    """Monte Carlo log marginal under M1 at the sample held by ``prior``.

    Deterministic given the sample; finite for any admissible q (the
    log-sum-exp shift guarantees at least one unit term survives).
    Accepts scalar or vector q; a scalar q takes the one-row path, which
    never builds the full ``a`` and ``b`` vectors.
    """
    qa = _as_q_array(q)
    if isinstance(qa, float):
        return _log_mean_exp_one(qa, design, prior.gammas)
    a, b = _mixture_terms(design, prior.gammas)
    return _log_mean_exp_rows(qa, a, b, workers=workers)


def log_bf01(q, design, prior, *, workers=1):
    """log BF01 = log_m0 - log_m1_mc.

    Exactly, this is strictly decreasing in q when the prior sample has any
    positive draw: its slope is a weighted mean of the draws' b (see
    ``_mixture_terms``) minus 1/2, and b < 1/2 at gamma > 0.  Computed
    values of close q can round to equal, so callers may rely only on them
    being non-increasing in q; the property tests check that over realised
    q.
    """
    # M1 first, so log_m0's T-vector is not alive while the kernel runs.
    m1 = log_m1_mc(q, design, prior, workers=workers)
    return log_m0(q, design) - m1


def bf01_from_data(t, n, sigma, prior):
    """log BF01 computed from a raw vector of site effect sizes."""
    q = compute_q(t, n, sigma)
    return log_bf01(q, DesignPoint(n=n, m=len(t)), prior)


def log_m1_quadrature(q, design, prior_dist):
    """Adaptive-quadrature evaluation of log m1 against the prior density.

    Independent check of the Monte Carlo path: integrates the exact
    integrand (shifted to avoid underflow) over gamma on a bounded
    interval whose tail contribution is negligible by Student-t decay.
    ``prior_dist`` is a distribution object (a FoldedT, HalfT included),
    not a sample.
    """
    from scipy import integrate

    q = _as_q_array(float(q))
    n, m = design.n, design.m

    def log_integrand(g):
        g = np.asarray(g, dtype=float)
        with np.errstate(divide="ignore"):  # pdf > 0 on [0, inf) for these families
            logpdf = np.log(prior_dist.pdf(g))
        return (0.5 * (1 - m) * np.log(1.0 / n + g * g)
                - 0.5 * q / (1.0 + n * g * g) + logpdf)

    # Upper limit: 50 prior scales past the location, also covering the
    # integrand peak at gamma^2 = q/(m-1) - 1/n when it exists.
    peak = math.sqrt(max(q / (m - 1) - 1.0 / n, 0.0))
    upper = max(prior_dist.mu + 50.0 * prior_dist.sigma, 2.0 * peak + 2.0)

    grid = np.linspace(0.0, upper, 4001)
    values = log_integrand(grid)
    shift = float(values.max())
    peak_at = float(grid[int(np.argmax(values))])

    integral, _ = integrate.quad(
        lambda g: math.exp(log_integrand(g) - shift),
        0.0, upper, points=[peak_at], limit=400,
    )
    return shift + math.log(integral)


def log_bf01_quadrature(q, design, prior_dist):
    """Quadrature counterpart of log_bf01 (oracle for the MC estimate)."""
    return float(log_m0(q, design)) - log_m1_quadrature(q, design, prior_dist)
