"""Which functions of ``src/replisize`` are traced, and the per-layer
metrics computed from their spans and counters.

A layer is a module of the package.  Each entry below names the end-to-end
metric it should move, and on which workload:

* ``distributions``: draws and busy time of the ``sample`` methods; moves
  ``search_s`` once the kernel stops dominating (negligible today).
* ``bayes_factor``: kernel calls, q x S elements, busy time, ns per
  element and bytes computed from array sizes; moves ``search_s`` and
  ``predictive_s`` (large batches) and ``analyze_p50_ms`` (one-row calls).
* ``evidence``: calls, elements sorted by ``threshold_from_alpha`` and busy
  time; moves ``search_s``.
* ``model``: ``compute_q`` calls and busy time; moves ``analyze_p50_ms``.
* ``predictive``: self time of the simulations (minus their kernel and draw
  children), CSV write time and bytes; moves ``predictive_s``.
* ``ssd``: gap evaluations, kernel passes per evaluation, time in gap
  evaluations and self time; moves ``search_s``.
* ``cli``: self time and bytes left on disk; moves ``search_s`` and
  ``predictive_s``.
* ``process``: minor page faults (``getrusage``), memory the allocator
  handed back to the system and touched again; moves ``analyze_p50_ms``.

Every value is per operation: the total over the traced operations divided
by their number.
"""

import os

from spans import count_under, layer_report, outermost

KERNEL_SPANS = ("bayes_factor.log_bf01", "bayes_factor.log_m1_mc")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _kernel_counts(args, kwargs):
    import numpy as np

    q = np.size(_arg(args, kwargs, 0, "q"))
    s = _arg(args, kwargs, 2, "prior").s
    elements = q * s
    # Computed from array sizes: one float64 q x S intermediate plus the q,
    # output and gamma vectors; cache misses are not counted.
    return {"bayes_factor.calls": 1, "bayes_factor.elements": elements,
            "bayes_factor.bytes_computed": 8 * (elements + 2 * q + s)}


def _draw_counts(args, kwargs):
    return {"distributions.draws": int(_arg(args, kwargs, 1, "count"))}


def _one(key):
    return lambda args, kwargs: {key: 1}


def _sorted_counts(args, kwargs):
    return {"evidence.calls": 1,
            "evidence.sorted_elems": _arg(args, kwargs, 0, "sample").values.size}


def _csv_bytes(args, kwargs, result):
    return {"predictive.csv_bytes": os.path.getsize(str(_arg(args, kwargs, 1, "path")))}


def _gap_evals(args, kwargs, result):
    return {"ssd.gap_evals": result.evaluations}


def install(tracer):
    """Patch the traced functions; ``tracer.unpatch()`` undoes it."""
    for cls in ("HalfT", "FoldedT", "ChiSquared"):
        tracer.patch_method("replisize.distributions", cls, "sample", "distributions",
                            before=_draw_counts)

    bf = "replisize.bayes_factor"
    tracer.patch_function(bf, "log_bf01", "bayes_factor", before=_kernel_counts)
    tracer.patch_function(bf, "log_m1_mc", "bayes_factor", before=_kernel_counts)
    tracer.patch_function(bf, "bf01_from_data", "bayes_factor",
                          before=_one("bayes_factor.calls"))
    tracer.patch_method(bf, "AnalysisPriorSample", "draw", "bayes_factor")

    ev = "replisize.evidence"
    tracer.patch_function(ev, "threshold_from_alpha", "evidence", before=_sorted_counts)
    tracer.patch_function(ev, "classify", "evidence", before=_one("evidence.calls"))
    tracer.patch_function(ev, "probs_to_dict", "evidence", before=_one("evidence.calls"))

    tracer.patch_function("replisize.model", "compute_q", "model",
                          before=_one("model.calls"))

    pr = "replisize.predictive"
    tracer.patch_function(pr, "simulate_bf_m0", "predictive")
    tracer.patch_function(pr, "simulate_bf_m1", "predictive")
    tracer.patch_function(pr, "save_logbf_csv", "predictive", after=_csv_bytes)
    tracer.patch_method(pr, "DesignPriorSample", "draw", "predictive")

    ssd = "replisize.ssd"
    tracer.patch_function(ssd, "sweep_m", "ssd")
    tracer.patch_function(ssd, "find_n_star", "ssd", after=_gap_evals)
    tracer.patch_method(ssd, "_GapEvaluator", "_evaluate", "ssd")

    for name in ("main", "cmd_ssd", "cmd_predictive", "cmd_analyze",
                 "write_results_csv"):
        tracer.patch_function("replisize.cli", name, "cli")


PER_LAYER = [
    # (name, unit)
    ("distributions.draws", "count"),
    ("distributions.busy_s", "s"),
    ("bayes_factor.calls", "count"),
    ("bayes_factor.elements", "count"),
    ("bayes_factor.busy_s", "s"),
    ("bayes_factor.ns_per_elem", "ns"),
    ("bayes_factor.bytes_computed", "B"),
    ("evidence.calls", "count"),
    ("evidence.sorted_elems", "count"),
    ("evidence.busy_s", "s"),
    ("model.calls", "count"),
    ("model.busy_s", "s"),
    ("predictive.self_s", "s"),
    ("predictive.csv_write_s", "s"),
    ("predictive.csv_bytes", "B"),
    ("ssd.gap_evals", "count"),
    ("ssd.kernel_passes_per_eval", "count"),
    ("ssd.gap_eval_s", "s"),
    ("ssd.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("process.page_faults", "count"),
    ("trace.op_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def per_layer_values(spans, counts, ops):
    """Per-operation layer metrics from one traced loop of ``ops`` operations
    (``trace.*`` excluded; the worker adds those), and the per-span-name
    totals they were computed from."""
    busy, by_name = layer_report(spans)
    kernel_s = sum(s.duration for s in outermost(spans, KERNEL_SPANS))
    elements = counts.get("bayes_factor.elements", 0)
    gap_evals = counts.get("ssd.gap_evals", 0)
    passes = count_under(spans, KERNEL_SPANS, "ssd.find_n_star")

    def named(name, field):
        return by_name.get(name, {}).get(field, 0.0)

    totals = {
        "distributions.draws": counts.get("distributions.draws", 0),
        "distributions.busy_s": busy.get("distributions", 0.0),
        "bayes_factor.calls": counts.get("bayes_factor.calls", 0),
        "bayes_factor.elements": elements,
        "bayes_factor.busy_s": busy.get("bayes_factor", 0.0),
        "bayes_factor.bytes_computed": counts.get("bayes_factor.bytes_computed", 0),
        "evidence.calls": counts.get("evidence.calls", 0),
        "evidence.sorted_elems": counts.get("evidence.sorted_elems", 0),
        "evidence.busy_s": busy.get("evidence", 0.0),
        "model.calls": counts.get("model.calls", 0),
        "model.busy_s": busy.get("model", 0.0),
        "predictive.self_s": (named("predictive.simulate_bf_m0", "self")
                              + named("predictive.simulate_bf_m1", "self")),
        "predictive.csv_write_s": named("predictive.save_logbf_csv", "duration"),
        "predictive.csv_bytes": counts.get("predictive.csv_bytes", 0),
        "ssd.gap_evals": gap_evals,
        "ssd.gap_eval_s": named("ssd._GapEvaluator._evaluate", "duration"),
        "ssd.self_s": busy.get("ssd", 0.0),
        "cli.self_s": busy.get("cli", 0.0),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "process.page_faults": counts.get("process.page_faults", 0),
    }
    out = {name: value / ops for name, value in totals.items()}
    out["bayes_factor.ns_per_elem"] = 1e9 * kernel_s / elements if elements else 0.0
    out["ssd.kernel_passes_per_eval"] = passes / gap_evals if gap_evals else 0.0
    return out, by_name
