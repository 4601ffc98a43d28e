"""Benchmark of ``replisize``: one workload per invocation.

    python3 perfbench/run.py --workload search|predictive|analyze \\
        --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory, and the
package is imported from its ``src``.  The workload runs in a fresh child
process (``worker.py``), so that set-up time and peak memory belong to it
alone.  Set-up is timed from spawning a child until it has imported
``replisize.cli`` and finished the workload's warm-up, in ``SETUP_SAMPLES``
children (the worker is the last), and reported as their median; a traced
run starts only the worker.

Human-readable lines come first, then an ``info`` line with the machine and
software versions, and last one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md
for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "replisize"

SETUP_SAMPLES = 5
# The contract allows 180 s per invocation; stop the child a little before.
DEADLINE_S = 170.0

WORKLOAD_NAMES = ("search", "predictive", "analyze")


def percentile(values, p):
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[min(int(rank), len(ordered)) - 1]


def tail_percentile(count):
    """p90 when at least ten samples lie beyond it, else p50.

    p99 is printed but not gated: on a shared machine the slowest 1 % of
    one-row requests are preemption bursts (they re-time at the median), and
    their share changes from run to run.
    """
    return 90 if count >= 100 else 50


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def latency_stats(ms):
    """Median, tail percentile (see tail_percentile) and p99 of ``ms``."""
    tail = tail_percentile(len(ms))
    p50 = statistics.median(ms)
    return p50, p50 if tail == 50 else percentile(ms, tail), percentile(ms, 99)


def end_to_end(cpu_s, setup_s, peak_rss_kb):
    """End-to-end metrics of one untraced run, as ``{name: (value, unit)}``.

    Operations are timed by the process's CPU clock: on a shared machine
    the wall clock also counts the time the process waited for a processor,
    which changes from run to run with the neighbours' load.
    """
    p50, tail, _ = latency_stats([1e3 * x for x in cpu_s])
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_cpu_p50_ms": (p50, "ms"),
        "op_cpu_tail_ms": (tail, "ms"),
        "ops_per_cpu_s": (len(cpu_s) / sum(cpu_s), "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def workload_names(workload, wall_s):
    """The issue's per-workload names for the wall-clock numbers, as
    ``(name, value, unit)``; printed, not gated."""
    p50, tail, p99 = latency_stats([1e3 * x for x in wall_s])
    if workload != "analyze":
        return [(f"{workload}_s", p50 / 1e3, "s")]
    return [("analyze_p50_ms", p50, "ms"),
            ("analyze_p90_ms", tail, "ms"),
            ("analyze_p99_ms", p99, "ms"),
            ("analyze_per_s", len(wall_s) / sum(wall_s), "1/s")]


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def machine_info():
    """Machine and checkout facts recorded with every result (read-only
    from /proc/cpuinfo and the CPU cache entries in sysfs)."""
    info = {"nproc": os.cpu_count(), "cpu": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    info["cpu"] = value.strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()[0]
            info["caches"][f"L{level}{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    sources = sorted(PACKAGE.rglob("*.py"))
    info["src_lines"] = sum(len(p.read_text().splitlines()) for p in sources)
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0"
                      + path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    info["git_commit"] = git_commit(ROOT)
    return info


def git_commit(root):
    """HEAD commit read from ``.git`` without running git; None outside a
    repository (the benchmark may run from an exported tree)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Child:
    """A worker process whose set-up is timed up to its ``READY`` line."""

    def __init__(self, argv, deadline):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        self.deadline = deadline

    def wait_ready(self):
        """Seconds from spawn to READY; raises if the child exits first."""
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(0.0, self.deadline - time.perf_counter())):
                raise TimeoutError("worker did not become ready in time")
        line = self.proc.stdout.readline()
        elapsed = time.perf_counter() - self.started
        if line.strip() != "READY":
            raise RuntimeError(f"worker failed during set-up (exit {self.proc.wait()})")
        return elapsed

    def wait(self):
        try:
            self.proc.communicate(timeout=max(0.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            raise TimeoutError("worker did not finish in time") from None
        return self.proc.returncode

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run(args):
    deadline = time.perf_counter() + DEADLINE_S
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    result_path = scratch / "result.json"
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scratch", str(scratch)]
    setup = []
    try:
        # A traced run reports no setup_s, so it spends no time on probes.
        for _ in range(0 if args.trace else SETUP_SAMPLES - 1):
            child = Child(base + ["--probe"], deadline)
            try:
                setup.append(child.wait_ready())
                if child.wait() != 0:
                    raise RuntimeError("set-up probe failed")
            finally:
                child.stop()
        child = Child(base + ["--result", str(result_path)], deadline)
        try:
            setup.append(child.wait_ready())
            code = child.wait()
        finally:
            child.stop()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return setup, json.loads(result_path.read_text())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass


def report(args, setup, raw):
    attempted, failed = raw["attempted"], len(raw["failed"])
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  closed loop, 1 client")
    print(f"  failed_frac      {failed / attempted:.4g}  ({failed} of {attempted} ops)")
    q1, q3 = quartiles(setup)
    print(f"  setup_s          {statistics.median(setup):.4f} s  "
          f"(median of {len(setup)}, quartiles {q1:.4f}..{q3:.4f})")
    if args.trace:
        from layers import PER_LAYER

        metrics = {name: (raw["per_layer"][name], unit) for name, unit in PER_LAYER}
        print(f"  {'span':<36} {'calls':>7} {'total_s':>10} {'self_s':>10}")
        for name, entry in sorted(raw["spans"].items()):
            print(f"  {name:<36} {entry['calls']:>7} {entry['duration']:>10.4f} "
                  f"{entry['self']:>10.4f}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:.6g} {unit}")
        if raw["missing"]:
            print(f"  not traced (absent from the package): {', '.join(raw['missing'])}")
    else:
        wall, cpu = raw["latencies_s"], raw["cpu_s"]
        if not wall:
            return attempted, failed, None
        metrics = end_to_end(cpu, setup, raw["peak_rss_kb"])
        tail = tail_percentile(len(wall))
        for clock, seconds in (("wall", wall), ("cpu", cpu)):
            ms = [1e3 * x for x in seconds]
            p50, tail_ms, _ = latency_stats(ms)
            q1, q3 = quartiles(ms)
            print(f"  op {clock:<4} latency median {p50:.4f} ms  quartiles {q1:.4f}..{q3:.4f} "
                  f"ms  p{tail} {tail_ms:.4f} ms  n={len(ms)}")
        for name, value, unit in workload_names(args.workload, wall):
            print(f"  {name:<16} {value:.6g} {unit}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:.6g} {unit}")
    info = machine_info()
    info.update(raw["versions"], workload=args.workload, seed=args.seed)
    print("info " + json.dumps(info))
    return attempted, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        setup, raw = run(args)
    except (RuntimeError, TimeoutError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    attempted, failed, metrics = report(args, setup, raw)
    if metrics is None:
        print("error: every operation failed", file=sys.stderr)
        return 1
    print(result_line(attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
