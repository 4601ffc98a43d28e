"""The three benchmark workloads: ``search``, ``predictive`` and ``analyze``.

Each workload is a closed loop with one client in one process, using the
package's default configuration (``workers`` unset, one thread).  A
workload has four steps:

* ``prepare()``   untimed warm-up, counted into ``setup_s``;
* ``op(i)``       one timed operation, returning ``((wall_s, cpu_s), output)``;
* ``check(i, o)`` untimed output check, returning a list of problems;
* ``finish()``    untimed run-level checks, returning ``{op index: problem}``.

The workload seed reaches the package only as generated inputs: the CLI
``--seed`` of a search is ``seed + i`` and of a predictive export
``seed + i // 2``; the analyze site vectors are drawn from it, and so is the
analyze prior-sample seed.
"""

import contextlib
import hashlib
import importlib
import io
import json
import math
import shutil
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import logsumexp

from replisize import cli
from replisize.bayes_factor import AnalysisPriorSample
from replisize.distributions import HalfT
from replisize.model import DesignPoint

SEARCH_M = 8
PREDICTIVE_N, PREDICTIVE_M = 80, 8
ANALYZE_S = 100_000
ANALYZE_MIN_REQUESTS = 2000
# Paper-default target of the search workload (cli.DEFAULT_CONFIG).
ALPHA, POWER = 0.01, 0.8

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def timed(fn, *args):
    """Call ``fn(*args)``; returns ``((wall_s, cpu_s), result)``.

    ``cpu_s`` is the process's CPU time (all threads, user and system).  It
    leaves out the time the process waited for a processor, which on a
    shared machine is the neighbours' load, not the program's cost.
    """
    wall, cpu = time.perf_counter(), time.process_time()
    result = fn(*args)
    return (time.perf_counter() - wall, time.process_time() - cpu), result


def _run_cli(argv):
    """cli.main(argv) with its stdout discarded; returns ((wall_s, cpu_s), code)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return timed(cli.main, argv)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def output_bytes(out):
    """Bytes an operation left on disk: a directory's files, or a file and
    its sidecars."""
    out = Path(out)
    if out.is_dir():
        return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return sum(p.stat().st_size for p in out.parent.glob(out.name + "*"))


class Search:
    """``replisize ssd --paper-defaults --m 8``: the paper's headline query.

    ``overrides`` are extra CLI ``--override`` specs, used by the harness
    tests to run the same path at reduced sizes.
    """

    name = "search"
    min_ops = 1

    def __init__(self, seed, scratch, overrides=()):
        self.seed = seed
        self.scratch = Path(scratch)
        self.overrides = [a for spec in overrides for a in ("--override", spec)]
        references = json.loads(REFERENCE_PATH.read_text())["search"]
        self.reference = None if overrides else references.get(str(seed))
        self.evaluations = []

    def prepare(self):
        pass

    def op(self, i):
        out = self.scratch / f"search_{i}.csv"
        timing, code = _run_cli(["ssd", "--paper-defaults", "--m", str(SEARCH_M),
                                 "--seed", str(self.seed + i), "--out", str(out),
                                 *self.overrides])
        return timing, (code, out)

    def check(self, i, output):
        code, out = output
        if code != 0:
            return [f"ssd exited with code {code}"]
        problems = []
        rows = cli.read_results_csv(out)
        if len(rows) != 1 or rows[0]["m"] != SEARCH_M:
            return [f"expected one row for m={SEARCH_M}, got {rows}"]
        row = rows[0]
        if not row["p1_c"] >= POWER:
            problems.append(f"p1_c={row['p1_c']} below power {POWER}")
        if not row["p0_m"] <= ALPHA:
            problems.append(f"p0_m={row['p0_m']} above alpha {ALPHA}")
        again = out.with_name(out.name + ".roundtrip")
        cli.write_results_csv(rows, list(row), again)
        if again.read_bytes() != out.read_bytes():
            problems.append("CSV does not round-trip through read_results_csv")
        if i == 0 and self.reference is not None:
            for key, want in self.reference.items():
                if row[key] != want:
                    problems.append(f"{key}={row[key]!r}, reference {want!r}")
        self.evaluations.append(row["evaluations"])
        for path in self.scratch.glob(f"search_{i}.csv*"):
            path.unlink()
        return problems

    def finish(self):
        return {}


class Predictive:
    """``replisize predictive --paper-defaults --n 80 --m 8``: two T x S
    kernel passes and two 50 000-row CSV exports, no search.

    Operations come in pairs at one CLI seed (``seed + i // 2``): the second
    of a pair is the rerun whose CSVs must be byte-identical to the first.
    """

    name = "predictive"
    min_ops = 2

    def __init__(self, seed, scratch, overrides=()):
        self.seed = seed
        self.scratch = Path(scratch)
        self.overrides = [a for spec in overrides for a in ("--override", spec)]
        self.hashes = {}

    def prepare(self):
        pass

    def op(self, i):
        out = self.scratch / f"predictive_{i}"
        timing, code = _run_cli(["predictive", "--paper-defaults",
                                 "--n", str(PREDICTIVE_N), "--m", str(PREDICTIVE_M),
                                 "--seed", str(self.seed + i // 2), "--out", str(out),
                                 *self.overrides])
        return timing, (code, out)

    def check(self, i, output):
        code, out = output
        if code != 0:
            return [f"predictive exited with code {code}"]
        problems = []
        stem = f"n{PREDICTIVE_N}_m{PREDICTIVE_M}"
        summary = json.loads((out / f"summary_{stem}.json").read_text())
        probs = summary["probs_at_k3"]
        for prefix in ("p0_", "p1_", "p_"):
            triple = [probs[prefix + part] for part in ("c", "m", "u")]
            if not all(0.0 <= p <= 1.0 for p in triple) or abs(sum(triple) - 1.0) > 1e-9:
                problems.append(f"{prefix}* = {triple} is not a simplex")
        t_count = summary["t_count"]
        for name in summary["files"]:
            with open(out / name) as fh:
                lines = sum(1 for _ in fh)
            if lines != t_count + 1:
                problems.append(f"{name} has {lines} lines, expected {t_count + 1}")
        self.hashes[i] = tuple(_sha256(out / f"bf_{model}_{stem}.csv")
                               for model in ("m0", "m1"))
        shutil.rmtree(out)
        return problems

    def finish(self):
        """The second operation of each pair must reproduce the first's CSVs."""
        return {i: "CSVs differ from a rerun at the same seed"
                for i in self.hashes
                if i % 2 and i - 1 in self.hashes and self.hashes[i] != self.hashes[i - 1]}


def reference_log_bf01(t, n, gammas):
    """Independent transcription of log BF01 from the bayes_factor module
    docstring, by scipy's logsumexp, for checking the kernel's values."""
    t = np.asarray(t, dtype=float)
    m = t.size
    q = n * float(np.sum((t - t.mean()) ** 2))
    u = n * gammas * gammas
    log_terms = 0.5 * (m - 1) * (math.log(n) - np.log1p(u)) - 0.5 * q / (1.0 + u)
    log_m1 = logsumexp(log_terms) - math.log(gammas.size)
    return 0.5 * (m - 1) * math.log(n) - 0.5 * q - log_m1


class Analyze:
    """Sequential ``bf01_from_data(t, n, 1.0, prior)`` requests against one
    shared analysis-prior sample of size ``s``: many one-row kernel calls.

    The warm-up first computes a log BF01 curve over ``CURVE_Q`` values of q
    in one large-batch call, as a session that reports the curve before
    analysing data does.  Its ~20 MB chunk buffer raises glibc's dynamic
    mmap and trim thresholds, so the per-request temporaries (S floats
    each) are reused from the heap.  In a process that never made a large
    temporary, every request instead returns them to the system and faults
    them back in: about 750 page faults per request at S = 100 000, falling
    to about 360 part-way through a run as the heap's layout shifts, so the
    latency swings between ~1.7 and ~2.6 ms within and between runs.
    """

    name = "analyze"
    BLOCK = 1024
    CHECK_EVERY = 50
    CURVE_Q = 100

    def __init__(self, seed, scratch, s=ANALYZE_S, min_ops=ANALYZE_MIN_REQUESTS):
        self.seed = seed
        self.s = s
        self.min_ops = min_ops
        self.requests = []
        self.values = {}
        self._rng = np.random.default_rng([seed, 2])
        # Looked up on the module at call time, so a tracer's patch applies.
        self._bf = importlib.import_module("replisize.bayes_factor")

    def _more_requests(self):
        rng = self._rng
        for _ in range(self.BLOCK):
            m = int(rng.integers(3, 18))
            n = int(rng.integers(20, 401))
            gamma = float(rng.uniform(0.05, 0.4)) if rng.random() < 0.5 else 0.0
            t = rng.normal(0.3, math.sqrt(1.0 / n + gamma * gamma), size=m)
            self.requests.append((t, n))

    def prepare(self):
        self.prior = AnalysisPriorSample.draw(HalfT(nu=4.0, sigma=1.0 / 7.0), self.s,
                                              self.seed)
        self._bf.log_bf01(np.linspace(0.0, 200.0, self.CURVE_Q), DesignPoint(n=80, m=8),
                          self.prior)
        warm = np.random.default_rng([self.seed, 3])
        for _ in range(20):
            self._bf.bf01_from_data(warm.normal(0.3, 0.1, size=8), 80, 1.0, self.prior)

    def op(self, i):
        while i >= len(self.requests):
            self._more_requests()
        t, n = self.requests[i]
        return timed(self._bf.bf01_from_data, t, n, 1.0, self.prior)

    def check(self, i, value):
        self.values[i] = value
        return [] if math.isfinite(value) else [f"non-finite log BF01 {value}"]

    def finish(self):
        """Every CHECK_EVERY-th value must equal log_bf01 on compute_q bit
        for bit, and the independent reference to 1e-9."""
        from replisize.bayes_factor import log_bf01
        from replisize.model import compute_q

        problems = {}
        for i in sorted(self.values)[::self.CHECK_EVERY]:
            t, n = self.requests[i]
            direct = float(log_bf01(compute_q(t, n, 1.0), DesignPoint(n=n, m=t.size),
                                    self.prior))
            reference = reference_log_bf01(t, n, self.prior.gammas)
            if self.values[i] != direct:
                problems[i] = f"value {self.values[i]!r} != log_bf01 {direct!r}"
            elif not abs(direct - reference) <= 1e-9 * max(1.0, abs(reference)):
                problems[i] = f"value {direct!r} != reference {reference!r}"
        return problems


WORKLOADS = {cls.name: cls for cls in (Search, Predictive, Analyze)}


def run_loop(workload, seconds, on_op=None):
    """Closed loop: run operations until their timed total reaches
    ``seconds`` and at least ``workload.min_ops`` were attempted.

    Returns ``(latencies, failed, attempted)``: the ``(wall_s, cpu_s)``
    latencies of operations that succeeded, the indices of those that raised
    or failed a check, and the number attempted.  The run's length counts
    wall time.  ``on_op(i, output)`` runs untimed after each operation that
    returned.
    """
    latencies, failed, measured, i = [], [], 0.0, 0
    while i < workload.min_ops or measured < seconds:
        start = time.perf_counter()
        try:
            latency, output = workload.op(i)
        except Exception as err:  # counted as failed; the loop goes on
            measured += time.perf_counter() - start
            print(f"{workload.name} op {i} raised {err!r}", file=sys.stderr, flush=True)
            failed.append(i)
            i += 1
            continue
        measured += latency[0]
        if on_op is not None:
            on_op(i, output)
        problems = workload.check(i, output)
        if problems:
            print(f"{workload.name} op {i}: {'; '.join(problems)}", file=sys.stderr,
                  flush=True)
            failed.append(i)
        else:
            latencies.append(latency)
        i += 1
    return latencies, failed, i
