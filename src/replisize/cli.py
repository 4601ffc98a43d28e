"""Command-line front end.

Subcommands:

* ``ssd``          sample-size table for a list of site counts, with
                   optional cost-based selection among the per-m optima
* ``predictive``   export the predictive log BF01 samples for one (n, m)
* ``sensitivity``  stacked ssd tables across design-prior locations
* ``analyze``      Bayes factor report for an observed effect-size CSV

Runs are configured by a JSON file (``--config``) or by ``--paper-defaults``,
optionally patched by repeatable ``--override key.path=value`` flags.  Exit
codes: 0 success, 1 infeasible target, 2 configuration error, 3 I/O error.
"""

import argparse
import copy
import csv
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .bayes_factor import AnalysisPriorSample, log_bf01
from .distributions import FoldedT, _number, prior_from_dict, prior_to_dict
from .evidence import Thresholds, classify, probs_to_dict
from .model import DesignPoint, compute_q, load_effect_sizes
from .predictive import DesignPriorSample, save_logbf_csv, simulate_bf_m0, simulate_bf_m1
from .predictive import _meta_path, _write_json
from .ssd import (
    RESULT_COLUMNS,
    CostSpec,
    Priors,
    SimSizes,
    SsdTarget,
    cost_select,
    result_to_row,
    sweep_m,
)

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


DEFAULT_SEED = 1729
_TABLE_HELP = "The table is written as JSON when its path ends in .json, else as CSV."

# Default weakly informative analysis prior and informative design prior,
# with simulation sizes large enough for stable tail quantiles.
DEFAULT_CONFIG = {
    "analysis_prior": {"family": "half_t", "nu": 4.0, "sigma": 1.0 / 7.0},
    "design_prior": {"family": "folded_t", "nu": 4.0, "mu": 0.2, "sigma": 1.0 / 55.0},
    "s": 10_000,
    "t_count": 50_000,
    "seed": DEFAULT_SEED,
    "m_values": list(range(3, 18)),
    "target": {"mode": "conditional", "alpha": 0.01, "power": 0.8, "pi0": 0.5},
}

def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: {err}")


def apply_override(cfg, spec):
    """Patch ``cfg`` in place with a dotted-path assignment like
    ``target.alpha=0.05``.  Values parse as JSON, falling back to string."""
    key, sep, raw = spec.partition("=")
    if not sep or not key:
        raise ConfigError(f"override must look like key.path=value, got {spec!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = cfg
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses non-object field {part!r}")
    node[parts[-1]] = value


def parse_m_values(spec):
    """Parse a site-count spec: '8', '3,5,8', or an inclusive range '3..17'."""
    lo, sep, hi = spec.partition("..")
    try:
        values = [int(lo), int(hi)] if sep else [int(tok) for tok in spec.split(",") if tok]
    except ValueError:
        raise ConfigError(f"cannot parse site counts from {spec!r}")
    if sep:  # both ends are bounded before the range is built
        lo, hi = _m_values(values)
        values = list(range(lo, hi + 1))
    if not values:
        raise ConfigError(f"empty site-count spec {spec!r}")
    return values


def resolve_config(args, *, need=()):
    """Merge config file / defaults / overrides into a validated run namespace."""
    if args.config and args.paper_defaults:
        raise ConfigError("use either --config or --paper-defaults, not both")
    if args.config:
        cfg = _load_config_file(args.config)
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: top-level value must be an object")
    elif args.paper_defaults:
        cfg = copy.deepcopy(DEFAULT_CONFIG)
    else:
        raise ConfigError("a run configuration is required: pass --config PATH "
                          "or --paper-defaults")
    for spec in args.override or []:
        apply_override(cfg, spec)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if getattr(args, "m", None) is not None:  # only ssd and sensitivity take --m
        cfg["m_values"] = parse_m_values(args.m)
    return _validate_config(cfg, need=set(need))


def _parse(name, build, *args):
    """``build(*args)``, with any error it raises about a bad value reported
    as a ConfigError about ``name``; a ConfigError passes unchanged."""
    try:
        return build(*args)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as err:
        raise ConfigError(f"{name}: {err}") from None


def _count(name, low, high=math.inf):
    """Parser of an integer field ``name`` in [low, high]."""
    def parse(value):
        number = int(value)
        # int() would quietly turn true into 1 and 600.7 into 600
        if isinstance(value, bool) or (isinstance(value, float) and number != value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not low <= number <= high:
            raise ConfigError(f"{name} must lie in [{low}, {high}], got {number}")
        return number
    return parse


_FLOAT64_INTS = 2**53 - 1  # the kernel computes in float64, exact for integers up to here
_site_count = _count("m_values", 3, _FLOAT64_INTS)


def _m_values(values):
    if not isinstance(values, list) or not values:
        raise ConfigError("m_values must be a non-empty list of integers")
    return [_site_count(m) for m in values]


def _require(spec, key):
    if spec.get(key) is None:
        raise ValueError(f"config is missing required field '{key}'")
    return spec[key]


def _target(spec):
    return SsdTarget(mode=spec.get("mode", "conditional"),
                     alpha=_number("alpha", _require(spec, "alpha")),
                     power=_number("power", _require(spec, "power")),
                     pi0=_number("pi0", spec.get("pi0", 0.5)))


def _cost(spec):
    return CostSpec(c1=_number("c1", _require(spec, "c1")),
                    c2=_number("c2", _require(spec, "c2")))


# Every config key: the parser of its value and the keys its object value may hold.
_PRIOR_KEYS = ("family", "nu", "mu", "sigma")
_FIELDS = {
    "analysis_prior": (prior_from_dict, _PRIOR_KEYS),
    "design_prior": (prior_from_dict, _PRIOR_KEYS),
    "s": (_count("s", 100, _FLOAT64_INTS), ()),
    "t_count": (_count("t_count", 100, _FLOAT64_INTS), ()),
    "seed": (_count("seed", 0), ()),  # SeedSequence takes any nonnegative int
    "m_values": (_m_values, ()),
    # each worker thread holds its own chunk buffer
    "workers": (_count("workers", 1, os.cpu_count() or 1), ()),
    "target": (_target, ("mode", "alpha", "power", "pi0")),
    "cost": (_cost, ("c1", "c2")),
}


def _validate_config(cfg, need):
    """Parse and range-check every field present; ``need`` names the
    optional fields the subcommand requires."""
    unknown = [key for key in cfg if key not in _FIELDS]
    unknown += [f"{key}.{sub}" for key, value in cfg.items()
                if key in _FIELDS and isinstance(value, dict)
                for sub in value if sub not in _FIELDS[key][1]]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for name in ("analysis_prior", "s", "seed", *need):
        if cfg.get(name) is None:
            raise ConfigError(f"config is missing required field '{name}'")
    run = argparse.Namespace(**{**dict.fromkeys(_FIELDS), "workers": 1})
    for name, value in cfg.items():
        if value is not None:
            setattr(run, name, _parse(name, _FIELDS[name][0], value))
    # At its peak a search or predictive run holds (3 + 2 * workers) * s + 7 * t_count
    # float64: S prior draws, the kernel's a and b and two-row chunk buffers (s > 65 536);
    # T design draws, q0, q1, two log BF01 vectors and two temporaries.  ru_maxrss grew
    # by just that from s and from t_count = 1e6 to 2e6 (m = 8, one and two workers).
    held = 8 * ((3 + 2 * run.workers) * run.s + 7 * (run.t_count or 0))
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if held > memory:
        raise ConfigError(f"s={run.s} and t_count={run.t_count} need about {held} bytes, "
                          f"more than this machine's {memory}")
    return run


# ---------------------------------------------------------------------------
# output helpers

def write_results_csv(rows, columns, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row.get(col) for col in columns])


_INT_COLUMNS = {"m", "n_star", "evaluations", "seed"}


def read_results_csv(path):
    """Read back a table written by write_results_csv, restoring types."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = []
        for raw in reader:
            row = {}
            for key, cell in raw.items():
                if cell == "" or cell is None:
                    row[key] = None
                elif key in _INT_COLUMNS:
                    row[key] = int(cell)
                else:
                    row[key] = float(cell)
            rows.append(row)
    return rows


def _sidecar(run, wall_time_ms, extra=None):
    meta = {
        "seed": run.seed,
        "s": run.s,
        "t_count": run.t_count,
        "priors": {
            "analysis": prior_to_dict(run.analysis_prior),
            "design": prior_to_dict(run.design_prior) if run.design_prior else None,
        },
        "wall_time_ms": wall_time_ms,
        "version": __version__,
    }
    if extra:
        meta.update(extra)
    return meta


def _claim(*paths):
    """Open each output for appending, so an unwritable one fails before any draw."""
    for path in paths:
        open(path, "a").close()


# ---------------------------------------------------------------------------
# subcommands

def _sweep_table(run, groups, path, extra):
    """One sweep over ``run.m_values`` per (leading columns, design prior)
    group; writes the stacked rows to ``path``, as JSON when it ends in
    .json and as CSV otherwise, and their sidecar.  Returns the results
    and the exit code, 1 if some group left a requested m infeasible."""
    path = Path(path)
    sidecar = _meta_path(path)
    _claim(path, sidecar)
    sizes = SimSizes(run.s, run.t_count)
    rows, results, errors = [], [], []
    started = time.perf_counter()
    for lead, prior in groups:
        where = "".join(f"{key}={value!r}, " for key, value in lead.items())
        log.info("sweeping %sm in %s", where, sorted(set(run.m_values)))
        found = sweep_m(run.m_values, run.target, Priors(run.analysis_prior, prior),
                        sizes, run.seed, workers=run.workers)
        rows += [{**lead, **result_to_row(r)} for r in found]
        results += found
        missing = sorted(set(run.m_values) - {r.m for r in found})
        if missing:
            errors.append(f"error: target infeasible for {where}m in {missing}")
    wall_ms = int((time.perf_counter() - started) * 1000)
    meta = _sidecar(run, wall_ms, extra)
    if path.suffix == ".json":
        _write_json({"results": rows, "meta": meta}, path)
    else:
        write_results_csv(rows, [*groups[0][0], *RESULT_COLUMNS], path)
    _write_json(meta, sidecar)
    print(f"wrote {len(rows)} rows to {path}")
    for error in errors:
        print(error, file=sys.stderr)
    return results, 1 if errors else 0


def cmd_ssd(args):
    run = resolve_config(args, need=("design_prior", "t_count", "m_values", "target"))
    results, code = _sweep_table(run, [({}, run.design_prior)],
                                 args.out or "ssd_results.csv",
                                 {"target": asdict(run.target)})
    for row in map(result_to_row, results):
        k0 = "" if row["k0"] is None else f"  k0={row['k0']:.3f}"
        print(f"  m={row['m']:3d}  n*={row['n_star']:5d}  "
              f"1/k1={row['inv_k1']:.3f}{k0}")
    if run.cost is not None and results:
        best, total = cost_select(results, run.cost)
        print(f"cheapest design: n={best.n_star}, m={best.m} "
              f"(total cost {total:g})")
    return code


def cmd_predictive(args):
    run = resolve_config(args, need=("design_prior", "t_count"))
    design = _parse("design", DesignPoint, args.n, args.sites)
    out_dir = Path(args.out or ".")
    stem = f"n{design.n}_m{design.m}"
    csvs = [out_dir / f"bf_{model}_{stem}.csv" for model in ("m0", "m1")]
    summary_path = out_dir / f"summary_{stem}.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    _claim(*csvs, *map(_meta_path, csvs), summary_path)
    started = time.perf_counter()
    prior_a = AnalysisPriorSample.draw(run.analysis_prior, run.s, run.seed)
    prior_d = DesignPriorSample.draw(run.design_prior, run.t_count, run.seed)
    sample0 = simulate_bf_m0(design, prior_a, run.t_count, run.seed,
                             workers=run.workers)
    sample1 = simulate_bf_m1(design, prior_a, prior_d, run.seed,
                             workers=run.workers)
    wall_ms = int((time.perf_counter() - started) * 1000)

    priors_meta = _sidecar(run, wall_ms)["priors"]
    for sample, path in zip((sample0, sample1), csvs):
        save_logbf_csv(sample, path, priors=priors_meta, wall_time_ms=wall_ms)

    # moderate-evidence cutoffs give the headline operating characteristics
    th = Thresholds(k0=3.0, inv_k1=1.0 / 3.0)
    probs = classify(sample0, sample1, th, pi0=0.5)
    summary = {
        "n": design.n,
        "m": design.m,
        "s": run.s,
        "t_count": run.t_count,
        "seed": run.seed,
        "files": [path.name for path in csvs],
        "probs_at_k3": probs_to_dict(probs, th),
        "wall_time_ms": wall_ms,
        "version": __version__,
    }
    _write_json(summary, summary_path)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_sensitivity(args):
    run = resolve_config(args, need=("design_prior", "t_count", "m_values", "target"))
    base = run.design_prior
    mus = list(dict.fromkeys(args.mu_gamma))  # distinct, in the order given
    # every location is checked before the first sweep
    groups = [({"mu_gamma": mu}, _parse("mu_gamma", FoldedT, base.nu, mu, base.sigma))
              for mu in mus]
    _, code = _sweep_table(run, groups, args.out or "sensitivity_results.csv",
                           {"mu_gamma_values": mus})
    return code


def evidence_band(bf01):
    """Informal strength label for a Bayes factor value."""
    if bf01 == 1.0:
        return "no evidence either way"
    favoured = "no heterogeneity (M0)" if bf01 > 1.0 else "heterogeneity (M1)"
    # BF01 underflows to 0.0 below log BF01 = -745: decisive evidence for M1
    magnitude = bf01 if bf01 > 1.0 else 1.0 / bf01 if bf01 > 0.0 else math.inf
    if magnitude < 3.0:
        label = "anecdotal"
    elif magnitude < 10.0:
        label = "moderate"
    else:
        label = "strong"
    return f"{label} evidence for {favoured}"


def cmd_analyze(args):
    run = resolve_config(args, need=())
    t = _parse("data", load_effect_sizes, args.data)
    design = _parse("design", DesignPoint, args.n, t.size)
    q = _parse("sigma", compute_q, t, args.n, args.sigma)
    if args.out:
        _claim(args.out)
    prior_a = AnalysisPriorSample.draw(run.analysis_prior, run.s, run.seed)
    log_bf = log_bf01(q, design, prior_a)
    try:
        bf = math.exp(log_bf)
    except OverflowError:  # above log BF01 = 709.78: decisive evidence for M0
        bf = math.inf
    report = {
        "data": str(args.data),
        "n": design.n,
        "m": design.m,
        "sigma": args.sigma,
        "q": q,
        "log_bf01": log_bf,
        "bf01": None if bf == math.inf else bf,  # JSON has no infinity
        "band": evidence_band(bf),
        "s": run.s,
        "seed": run.seed,
        "analysis_prior": prior_to_dict(run.analysis_prior),
        "version": __version__,
    }
    if args.out:
        _write_json(report, args.out)
    print(json.dumps(report, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(parser):
    parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--paper-defaults", action="store_true",
                        help="use the built-in default configuration")
    parser.add_argument("--override", metavar="KEY=VAL", action="append",
                        help="dotted-path config override (repeatable)")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", metavar="PATH", help="output path")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="replisize",
        description="Sample size determination for heterogeneity tests in "
                    "multi-site replication designs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ssd", help="optimal n per site count, as a table",
                       epilog=_TABLE_HELP)
    _add_common(p)
    p.add_argument("--m", metavar="SPEC",
                   help="site counts, e.g. '8', '3,5,8' or '3..17'")
    p.set_defaults(func=cmd_ssd)

    p = sub.add_parser("predictive", help="export predictive log BF01 samples")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="subjects per site")
    p.add_argument("--m", type=int, required=True, dest="sites", metavar="M",
                   help="number of sites")
    p.set_defaults(func=cmd_predictive)

    p = sub.add_parser("sensitivity",
                       help="ssd tables across design-prior locations", epilog=_TABLE_HELP)
    _add_common(p)
    p.add_argument("--m", metavar="SPEC", help="site counts, as for ssd")
    p.add_argument("--mu-gamma", type=float, nargs="+", required=True,
                   help="design prior locations to sweep")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("analyze", help="Bayes factor for observed effect sizes")
    _add_common(p)
    p.add_argument("--data", metavar="PATH", required=True,
                   help="CSV with one column of site effect sizes")
    p.add_argument("--n", type=int, required=True, help="subjects per site")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="known unit standard deviation (default 1)")
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(message)s")
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
