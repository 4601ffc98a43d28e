"""Child process that runs one workload; started by ``run.py``.

It imports ``replisize`` from the ``src`` next to this directory, runs the workload's
untimed warm-up, and prints ``READY`` so the parent can time the set-up.
With ``--probe`` it stops there.  Otherwise it runs the closed loop, checks
the outputs and writes its raw numbers as JSON to ``--result``.

With ``--trace 1`` it alternates untraced and traced operations on
identical inputs for ``--seconds``; the per-layer numbers come from the
traced operations and ``trace.overhead_frac`` compares the medians of the
two sides.
"""

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path


def _import_package():
    src = Path(__file__).resolve().parents[1] / "src"
    sys.path.insert(0, str(src))
    import replisize

    if src not in Path(replisize.__file__).resolve().parents:
        raise SystemExit(f"replisize was imported from {replisize.__file__}, "
                         f"not from {src}")


def _versions():
    import platform

    import numpy
    import scipy

    import replisize

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "replisize": replisize.__version__}


class Paired:
    """Operation 2k runs input k untraced, operation 2k+1 runs the same
    input traced, so the two sides see the same inputs and the same machine
    state and their difference is the tracing overhead."""

    def __init__(self, plain, traced, tracer):
        self.sides = (plain, traced)
        self.tracer = tracer
        self.name = plain.name
        self.min_ops = 2 * plain.min_ops
        self.latencies = ([], [])

    def op(self, i):
        side = i % 2
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.tracer.enabled = bool(side)
        try:
            latency, output = self.sides[side].op(i // 2)
        finally:
            self.tracer.enabled = False
        if side:
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            self.tracer.add("process.page_faults", faults)
        self._last = latency[0]
        return latency, output

    def check(self, i, output):
        problems = self.sides[i % 2].check(i // 2, output)
        if not problems:
            self.latencies[i % 2].append(self._last)
        return problems

    def finish(self):
        problems = {}
        for side, workload in enumerate(self.sides):
            problems.update({2 * k + side: p for k, p in workload.finish().items()})
        return problems


def _loop(workload, seconds, on_op=None):
    from workloads import run_loop

    latencies, failed, attempted = run_loop(workload, seconds, on_op)
    run_level = workload.finish()
    for i, problem in sorted(run_level.items()):
        print(f"{workload.name} op {i}: {problem}", file=sys.stderr, flush=True)
    return latencies, sorted(set(failed) | set(run_level)), attempted


def _traced_run(plain, make, args):
    """Per-layer numbers from a paired untraced/traced loop."""
    from layers import install, per_layer_values
    from spans import Tracer
    from workloads import output_bytes

    traced = make(args.seed, args.scratch)
    traced.prepare()
    tracer = Tracer(run_id=f"{args.workload}-{args.seed}")
    paired = Paired(plain, traced, tracer)
    install(tracer)

    def on_op(i, output):
        if i % 2 and args.workload != "analyze":
            tracer.add("cli.bytes_written", output_bytes(output[1]))

    try:
        _, failed, attempted = _loop(paired, args.seconds, on_op)
    finally:
        tracer.unpatch()
    plain_s, traced_s = paired.latencies
    layer, by_name = per_layer_values(tracer.spans, tracer.counts, attempted // 2)
    layer["trace.op_s"] = statistics.median(traced_s) if traced_s else 0.0
    layer["trace.overhead_frac"] = (statistics.median(traced_s) / statistics.median(plain_s)
                                    - 1.0 if traced_s and plain_s else 0.0)
    if args.workload == "search" and "replisize.ssd.find_n_star" not in tracer.missing:
        from_csv = sum(traced.evaluations)
        from_result = tracer.counts.get("ssd.gap_evals", 0)
        if from_csv != from_result:
            print(f"search: SsdResult.evaluations total {from_result} != CSV "
                  f"evaluations total {from_csv}", file=sys.stderr, flush=True)
            failed = sorted(set(failed) | {1})
    return {"failed": failed, "attempted": attempted, "per_layer": layer,
            "spans": by_name, "missing": tracer.missing}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    make = WORKLOADS[args.workload]
    workload = make(args.seed, args.scratch)
    workload.prepare()
    print("READY", flush=True)
    if args.probe:
        return 0

    if args.trace:
        result = _traced_run(workload, make, args)
    else:
        latencies, failed, attempted = _loop(workload, args.seconds)
        result = {"latencies_s": [wall for wall, _ in latencies],
                  "cpu_s": [cpu for _, cpu in latencies],
                  "failed": failed, "attempted": attempted,
                  "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    result["versions"] = _versions()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
