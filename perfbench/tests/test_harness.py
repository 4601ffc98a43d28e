"""Tests of the benchmark harness itself, at reduced sizes."""

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads
from spans import Span, Tracer, count_under, layer_report, self_times

ROOT = Path(__file__).resolve().parents[2]
SMALL_SEARCH = ("s=600", "t_count=1500")
SMALL_PREDICTIVE = ("s=300", "t_count=500")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([0.5, 0.25, 1.0], [1.0, 1.2, 1.1], 2048)
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == {
        (name, unit) for name, (_, unit) in e2e.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert all(value > 0 for value, _ in e2e.values())


def test_end_to_end_arithmetic():
    e2e = run.end_to_end([0.5, 0.25, 1.0], [1.0, 1.2, 1.1], 2048)
    assert e2e["op_cpu_p50_ms"][0] == 500.0
    assert e2e["op_cpu_tail_ms"][0] == 500.0  # p50: too few samples for a tail
    assert e2e["ops_per_cpu_s"][0] == pytest.approx(3 / 1.75)
    assert e2e["setup_s"][0] == 1.1
    assert e2e["peak_rss_mb"][0] == 2.0


def test_workload_names_cover_the_issue_metrics():
    wall = [0.002] * 99 + [0.01]
    names = {w: [n for n, _, _ in run.workload_names(w, wall)] for w in run.WORKLOAD_NAMES}
    assert names == {"search": ["search_s"], "predictive": ["predictive_s"],
                     "analyze": ["analyze_p50_ms", "analyze_p90_ms", "analyze_p99_ms",
                                 "analyze_per_s"]}
    assert run.workload_names("search", wall)[0][1] == 0.002
    analyze = {n: v for n, v, _ in run.workload_names("analyze", wall)}
    assert analyze["analyze_p50_ms"] == 2.0 and analyze["analyze_p99_ms"] == 2.0
    assert analyze["analyze_per_s"] == pytest.approx(100 / 0.208)


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert run.percentile(values, 99) == 990
    assert run.percentile(values, 50) == 500
    assert run.percentile([7.0], 99) == 7.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert [run.tail_percentile(n) for n in (1, 99, 100, 8000)] == [50, 50, 90, 90]


def test_result_line_counts_failures():
    metrics = {"setup_s": (1.0, "s")}
    ok = json.loads(run.result_line(10, 0, metrics))
    bad = json.loads(run.result_line(10, 2, metrics))
    assert ok == {"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"setup_s": {"value": 1.0, "unit": "s"}}}
    assert bad["correct"] is False and bad["failed"] == 2


class FakeWorkload:
    name = "fake"
    min_ops = 5

    def op(self, i):
        if i == 1:
            raise RuntimeError("boom")
        return (0.001, 0.0005), i

    def check(self, i, output):
        return ["wrong"] if output == 3 else []


def test_run_loop_counts_raised_and_failed_checks():
    latencies, failed, attempted = workloads.run_loop(FakeWorkload(), seconds=0.0)
    assert attempted == 5
    assert failed == [1, 3]
    assert latencies == [(0.001, 0.0005)] * 3


def _span(span_id, start, end, parent, layer="a", name=None):
    return Span(span_id, name or f"{layer}.f{span_id}", layer, start, end, parent, "r")


def test_self_time_on_synthetic_span_tree():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping, as two
    # threads would make them); the first child has a grandchild [2, 3].
    spans = [_span(0, 0.0, 10.0, None, "cli"),
             _span(1, 1.0, 4.0, 0, "ssd"),
             _span(2, 3.0, 6.0, 0, "ssd"),
             _span(3, 2.0, 3.0, 1, "bayes_factor")]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
    busy, by_name = layer_report(spans)
    assert busy == {"cli": 5.0, "ssd": 5.0, "bayes_factor": 1.0}
    assert by_name["ssd.f1"] == {"duration": 3.0, "self": 2.0, "calls": 1}
    assert count_under(spans, {"bayes_factor.f3"}, "cli.f0") == 1
    assert count_under(spans, {"bayes_factor.f3"}, "ssd.f2") == 0


def test_nested_calls_into_one_layer_count_once():
    tracer = Tracer("r")

    def inner():
        return 1

    inner_w = tracer.wrap(inner, "x.inner", "x", before=lambda a, k: {"x.calls": 1})

    def outer():
        return inner_w() + inner_w()

    outer_w = tracer.wrap(outer, "x.outer", "x", before=lambda a, k: {"x.calls": 1})
    tracer.enabled = True
    assert outer_w() == 2 and inner_w() == 1
    assert tracer.counts == {"x.calls": 2}
    assert [s.parent for s in tracer.spans] == [None, 0, 0, None]
    tracer.enabled = False
    outer_w()
    assert len(tracer.spans) == 4


def test_patch_reaches_names_imported_by_other_modules():
    from replisize import bayes_factor, cli, predictive, ssd

    original = bayes_factor.log_bf01
    tracer = Tracer("r")
    layers.install(tracer)
    try:
        assert tracer.missing == []
        for module in (bayes_factor, ssd, predictive, cli):
            assert module.log_bf01 is not original
    finally:
        tracer.unpatch()
    for module in (bayes_factor, ssd, predictive, cli):
        assert module.log_bf01 is original


def _traced(workload, ops=1):
    """Run ``ops`` operations of ``workload`` traced; returns per-layer values."""
    tracer = Tracer("test")
    layers.install(tracer)
    try:
        workload.prepare()
        for i in range(ops):
            tracer.enabled = True
            try:
                _, output = workload.op(i)
            finally:
                tracer.enabled = False
            assert workload.check(i, output) == []
        assert workload.finish() == {}
    finally:
        tracer.unpatch()
    values, _ = layers.per_layer_values(tracer.spans, tracer.counts, ops)
    return values


def test_search_at_reduced_size(tmp_path):
    search = workloads.Search(3, tmp_path, overrides=SMALL_SEARCH)
    values = _traced(search)
    assert values["ssd.gap_evals"] == search.evaluations[0] > 0
    assert values["ssd.kernel_passes_per_eval"] == 2.0
    assert values["bayes_factor.elements"] == values["bayes_factor.calls"] * 1500 * 600
    assert values["evidence.sorted_elems"] == values["ssd.gap_evals"] * 1500
    assert values["cli.self_s"] > 0 and values["ssd.gap_eval_s"] > 0


def test_search_reference_mismatch_is_a_failure(tmp_path):
    search = workloads.Search(3, tmp_path, overrides=SMALL_SEARCH)
    search.reference = {"n_star": -1}
    _, output = search.op(0)
    n_star = workloads.cli.read_results_csv(output[1])[0]["n_star"]
    assert search.check(0, output) == [f"n_star={n_star!r}, reference -1"]


def test_predictive_at_reduced_size(tmp_path):
    values = _traced(workloads.Predictive(5, tmp_path, overrides=SMALL_PREDICTIVE), ops=2)
    assert values["bayes_factor.elements"] == 2 * 500 * 300
    assert values["bayes_factor.calls"] == 2
    assert values["distributions.draws"] == 300 + 500 + 2 * 500
    assert values["predictive.csv_bytes"] > 0
    assert values["ssd.gap_evals"] == 0
    assert list(tmp_path.iterdir()) == []


def test_predictive_rerun_mismatch_is_a_failure(tmp_path):
    predictive = workloads.Predictive(5, tmp_path, overrides=SMALL_PREDICTIVE)
    for i in range(3):
        _, output = predictive.op(i)
        assert predictive.check(i, output) == []
    assert predictive.hashes[0] == predictive.hashes[1] != predictive.hashes[2]
    assert predictive.finish() == {}
    predictive.hashes[1] = ("0", "0")
    assert predictive.finish() == {1: "CSVs differ from a rerun at the same seed"}


def test_analyze_at_reduced_size(tmp_path):
    analyze = workloads.Analyze(7, tmp_path, s=2000, min_ops=120)
    values = _traced(analyze, ops=120)
    assert values["bayes_factor.calls"] == 1
    assert values["bayes_factor.elements"] == 2000
    assert values["model.calls"] == 1
    assert values["cli.bytes_written"] == 0


def test_analyze_checks_catch_a_wrong_value(tmp_path):
    analyze = workloads.Analyze(7, tmp_path, s=2000, min_ops=60)
    analyze.prepare()
    workloads.run_loop(analyze, seconds=0.0)
    assert analyze.finish() == {}
    analyze.values[50] += 1e-6
    assert list(analyze.finish()) == [50]


FAULTS_PER_REQUEST = """
import resource, sys, workloads
analyze = workloads.Analyze(7, sys.argv[1], min_ops=50)
analyze.prepare()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
workloads.run_loop(analyze, seconds=0.0)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc thresholds")
def test_analyze_warm_up_keeps_requests_free_of_page_faults(tmp_path):
    # A fresh process, since earlier tests may already have raised the
    # allocator's thresholds in this one.
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_REQUEST, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=120, check=True)
    # Without the large-batch warm-up, ~750 per request.
    assert float(proc.stdout) < 20


def test_reference_formula_matches_kernel():
    import numpy as np
    from replisize.bayes_factor import AnalysisPriorSample, bf01_from_data
    from replisize.distributions import HalfT

    prior = AnalysisPriorSample.draw(HalfT(4.0, 1 / 7), 5000, 11)
    t = np.array([0.11, 0.42, 0.27, 0.35])
    assert workloads.reference_log_bf01(t, 80, prior.gammas) == pytest.approx(
        bf01_from_data(t, 80, 1.0, prior), abs=1e-10)


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
