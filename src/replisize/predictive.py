"""Prior predictive simulation of log BF01 under each candidate model.

Under M0 the dispersion statistic is chi-squared with m-1 degrees of
freedom; under M1 the same chi-squared draw is inflated by (1 + n*gamma^2)
with gamma drawn from the design prior, paired index-wise.  Each simulated
q is pushed through the Bayes factor at a shared analysis-prior sample,
giving T draws from the predictive distribution of log BF01.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bayes_factor import AnalysisPriorSample, log_bf01
from .distributions import ChiSquared
from .model import DesignPoint
from .seeding import STREAM_DESIGN, STREAM_PREDICTIVE, substream

__all__ = [
    "DesignPriorSample",
    "LogBfSample",
    "simulate_bf_m0",
    "simulate_bf_m1",
    "save_logbf_csv",
    "load_logbf_csv",
]


class DesignPriorSample(AnalysisPriorSample):
    """Sample of size T from the design prior, one draw per predictive iteration."""

    @classmethod
    def draw(cls, prior, t_count, seed):
        rng = substream(seed, STREAM_DESIGN)
        return cls(gammas=prior.sample(t_count, rng))

    @property
    def t_count(self):
        return self.gammas.size


@dataclass(frozen=True)
class LogBfSample:
    """T draws of log BF01 under one model, with reproduction metadata."""

    values: np.ndarray
    model: str  # "M0" or "M1"
    design: DesignPoint
    s: int
    seeds: tuple | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("log BF sample must be a non-empty 1-d vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("log BF sample contains non-finite values")
        if self.model not in ("M0", "M1"):
            raise ValueError(f"model must be 'M0' or 'M1', got {self.model!r}")
        object.__setattr__(self, "values", values)

    @property
    def t_count(self):
        return self.values.size


def draw_q0(m, t_count, seed):
    """T draws of q ~ chi2(m-1) from the predictive stream of an integer
    master seed; returns ``(q, seeds)``, seeds being that stream's
    (seed, stream id)."""
    rng = substream(seed, STREAM_PREDICTIVE)
    return ChiSquared(m - 1).sample(t_count, rng), (int(seed), STREAM_PREDICTIVE)


def q1_from_q0(q0, n, gammas):
    """Q under M1: each M0 draw inflated by (1 + n * gamma^2), paired
    index-wise with the design-prior draws."""
    return q0 * (1.0 + n * gammas**2)


def simulate_bf_m0(design, prior_a, t_count, seed, *, workers=1):
    """Predictive log BF01 sample assuming no heterogeneity.

    Draws q ~ chi2(m-1) per iteration and records log_bf01(q) at the shared
    analysis-prior sample.  The chi-squared stream is derived from the
    integer master ``seed``.
    """
    q, seeds = draw_q0(design.m, t_count, seed)
    values = log_bf01(q, design, prior_a, workers=workers)
    return LogBfSample(values=values, model="M0", design=design,
                       s=prior_a.s, seeds=seeds)


def simulate_bf_m1(design, prior_a, prior_d, seed, *, workers=1):
    """Predictive log BF01 sample under the design prior's heterogeneity.

    The t-th chi-squared draw is scaled by (1 + n * gamma_d[t]^2), pairing
    each iteration with its own design-prior draw.  When every design draw
    is zero this reproduces simulate_bf_m0 value for value at the same
    integer master ``seed``.
    """
    q0, seeds = draw_q0(design.m, prior_d.t_count, seed)
    q = q1_from_q0(q0, design.n, prior_d.gammas)
    values = log_bf01(q, design, prior_a, workers=workers)
    return LogBfSample(values=values, model="M1", design=design,
                       s=prior_a.s, seeds=seeds)


def save_logbf_csv(sample, path, *, priors=None, wall_time_ms=None):
    """Write the draws as a single-column CSV plus a JSON metadata sidecar.

    Values are written with shortest round-trip formatting, so a rerun at
    the same seed produces byte-identical files.  The sidecar lands at
    ``path + '.meta.json'``.
    """
    with open(path, "w", newline="") as fh:
        fh.write("log_bf01\n")
        for v in sample.values:
            fh.write(repr(float(v)) + "\n")
    meta = {
        "model": sample.model,
        "n": sample.design.n,
        "m": sample.design.m,
        "s": sample.s,
        "t_count": sample.t_count,
        "seeds": list(sample.seeds) if sample.seeds else None,
        "priors": priors,
        "wall_time_ms": wall_time_ms,
        "version": __version__,
    }
    _write_json(meta, _meta_path(path))


def _meta_path(path):
    """Where the JSON metadata sidecar of the output ``path`` lands."""
    return f"{path}.meta.json"


def _write_json(payload, path):
    """Write ``payload`` as indented JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_logbf_csv(path):
    """Read back a sample written by save_logbf_csv (values + sidecar)."""
    values = np.loadtxt(path, skiprows=1, dtype=float, ndmin=1)
    with open(_meta_path(path)) as fh:
        meta = json.load(fh)
    if values.size != meta["t_count"]:
        raise ValueError(f"{path}: sidecar says t_count={meta['t_count']} "
                         f"but the file holds {values.size} values")
    design = DesignPoint(n=meta["n"], m=meta["m"])
    seeds = tuple(meta["seeds"]) if meta.get("seeds") else None
    return LogBfSample(values=values, model=meta["model"], design=design,
                       s=meta["s"], seeds=seeds)
