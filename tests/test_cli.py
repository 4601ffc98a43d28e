import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import replisize
from replisize import cli
from replisize.bayes_factor import AnalysisPriorSample, bf01_from_data, log_bf01_quadrature
from replisize.cli import (
    ConfigError,
    apply_override,
    evidence_band,
    main,
    parse_m_values,
    read_results_csv,
    write_results_csv,
)
from replisize.distributions import ChiSquared, FoldedT, HalfT
from replisize.model import DesignPoint
from replisize.predictive import load_logbf_csv
from replisize.ssd import RESULT_COLUMNS, CostSpec, SsdResult, cost_select

SMALL_CONFIG = {
    "analysis_prior": {"family": "half_t", "nu": 4.0, "sigma": 1 / 7},
    "design_prior": {"family": "folded_t", "nu": 4.0, "mu": 0.2, "sigma": 1 / 55},
    "s": 600,
    "t_count": 1500,
    "seed": 77,
    "m_values": [8],
    "target": {"mode": "conditional", "alpha": 0.05, "power": 0.8},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


@pytest.fixture
def sweeps(monkeypatch):
    """The design prior of each ``sweep_m`` call the CLI makes, in order."""
    calls = []
    real_sweep = cli.sweep_m

    def sweep_m(m_values, target, priors, sim_sizes, master_seed, *, workers):
        calls.append(priors.design)
        return real_sweep(m_values, target, priors, sim_sizes, master_seed,
                          workers=workers)

    monkeypatch.setattr(cli, "sweep_m", sweep_m)
    return calls


def test_ssd_writes_table_and_sidecar(tmp_path, config_path, capsys):
    out = tmp_path / "results.csv"
    code = main(["ssd", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    rows = read_results_csv(out)
    assert len(rows) == 1
    assert list(rows[0]) == RESULT_COLUMNS
    assert rows[0]["m"] == 8
    assert rows[0]["k0"] is None  # conditional mode
    assert rows[0]["n_star"] > 10
    meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
    assert meta["s"] == 600 and meta["seed"] == 77
    assert "wall_time_ms" in meta and meta["version"]
    assert "n*" in capsys.readouterr().out


def test_ssd_runs_are_deterministic(tmp_path, config_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["ssd", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["ssd", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_ssd_json_output(tmp_path, config_path):
    out = tmp_path / "results.json"
    code = main(["ssd", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"][0]["m"] == 8
    assert payload["meta"]["t_count"] == 1500
    assert json.loads((tmp_path / "results.json.meta.json").read_text()) == payload["meta"]


def test_table_format_follows_the_out_name(tmp_path, config_path, monkeypatch):
    # only a .json path gives JSON; the default path and any other name give CSV
    monkeypatch.chdir(tmp_path)
    argv = ["sensitivity", "--config", str(config_path), "--mu-gamma", "0.2"]
    for out in ([], ["--out", "table.txt"], ["--out", "table.json"]):
        assert main(argv + out) == 0
    for name in ("sensitivity_results.csv", "table.txt"):
        assert read_results_csv(tmp_path / name)[0]["mu_gamma"] == 0.2
        assert (tmp_path / f"{name}.meta.json").is_file()
    assert json.loads((tmp_path / "table.json").read_text())["results"][0]["mu_gamma"] == 0.2


def _old_format_cell(value):
    """The cell rule write_results_csv used before it handed cells to csv."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cells(column):
    floats = st.floats(allow_nan=False) | st.sampled_from([5e-324, -0.0, 1e-05])
    values = st.integers(-10**6, 10**6) if column in cli._INT_COLUMNS else floats
    return st.none() | values


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.fixed_dictionaries({col: _cells(col) for col in RESULT_COLUMNS}),
                max_size=5))
def test_results_csv_round_trips_in_the_old_format(tmp_path, rows):
    path = tmp_path / "results.csv"
    write_results_csv(rows, RESULT_COLUMNS, path)
    # repr tells 1 from 1.0, -0.0 from 0.0 and None from both
    assert [{k: repr(v) for k, v in row.items()} for row in read_results_csv(path)] \
        == [{k: repr(v) for k, v in row.items()} for row in rows]
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(RESULT_COLUMNS)
    for row in rows:
        writer.writerow([_old_format_cell(row[col]) for col in RESULT_COLUMNS])
    assert path.read_bytes() == expected.getvalue().encode()


def test_results_csv_writes_numpy_floats_as_numbers(tmp_path):
    path = tmp_path / "results.csv"
    values = [0.3, 1e-05, -0.0, 5e-324, 1e300]
    write_results_csv([{"m": 8, "inv_k1": np.float64(v)} for v in values],
                      ["m", "inv_k1"], path)
    back = [row["inv_k1"] for row in read_results_csv(path)]
    assert [repr(v) for v in back] == [repr(v) for v in values]


def test_override_changes_target(tmp_path, config_path):
    out = tmp_path / "results.csv"
    code = main(["ssd", "--config", str(config_path), "--out", str(out),
                 "--override", "target.alpha=0.01", "--override", "s=800"])
    assert code == 0
    meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
    assert meta["target"]["alpha"] == 0.01
    assert meta["s"] == 800


def test_missing_design_prior_exits_2(tmp_path, capsys):
    cfg = {k: v for k, v in SMALL_CONFIG.items() if k != "design_prior"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = main(["ssd", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "design_prior" in capsys.readouterr().err


def test_malformed_json_exits_2_with_location(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"s": 600,,}')
    assert main(["ssd", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["ssd", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: " in err and "Traceback" not in err


def test_no_config_source_exits_2(capsys):
    assert main(["ssd"]) == 2
    assert "config" in capsys.readouterr().err


def test_unwritable_output_exits_3(tmp_path, config_path, sweeps, monkeypatch, capsys):
    # every output file is opened before the first draw: the table and its
    # sidecar before the first search
    (tmp_path / "a-dir").mkdir()
    for command in (["ssd"], ["sensitivity", "--mu-gamma", "0.2"]):
        for out in ("missing-dir/results.csv", "a-dir"):
            code = main(command + ["--config", str(config_path),
                                   "--out", str(tmp_path / out)])
            assert code == 3, (command, out)
            assert "i/o error" in capsys.readouterr().err
    assert sweeps == []
    # and predictive's directory is made before the first simulation
    simulations = []
    monkeypatch.setattr(cli, "simulate_bf_m0", lambda *a, **k: simulations.append(a))
    (tmp_path / "a-file").write_text("")
    assert main(["predictive", "--config", str(config_path), "--n", "80", "--m", "8",
                 "--out", str(tmp_path / "a-file" / "sub")]) == 3
    assert "i/o error" in capsys.readouterr().err
    # and its sample CSVs and summary before the first simulation
    for name in ("bf_m0_n80_m8.csv", "summary_n80_m8.json"):
        out = tmp_path / f"pred-{name}"
        (out / name).mkdir(parents=True)
        assert main(["predictive", "--config", str(config_path), "--n", "80", "--m", "8",
                     "--out", str(out)]) == 3, name
        assert "i/o error" in capsys.readouterr().err
    assert simulations == []
    # analyze's report before its kernel call
    kernel_calls = []
    monkeypatch.setattr(cli, "log_bf01", lambda *a, **k: kernel_calls.append(a))
    data = tmp_path / "sites.csv"
    data.write_text("t\n0.11\n0.39\n0.25\n0.2\n")
    assert main(["analyze", "--config", str(config_path), "--data", str(data), "--n", "50",
                 "--out", str(tmp_path / "missing-dir" / "report.json")]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert kernel_calls == []


def test_rerun_over_longer_outputs_leaves_no_stale_bytes(tmp_path, config_path):
    # each output is claimed in append mode before the work and truncated
    # by its write, so a rerun over longer files writes the first run's bytes
    data = tmp_path / "sites.csv"
    data.write_text("t\n0.11\n0.39\n0.25\n0.2\n")
    out = tmp_path / "out"
    out.mkdir()
    runs = [["ssd", "--out", str(out / "ssd.csv")],
            ["predictive", "--n", "40", "--m", "6", "--out", str(out / "pred")],
            ["analyze", "--data", str(data), "--n", "50", "--out", str(out / "report.json")]]

    def run_all():
        for argv in runs:
            assert main(argv + ["--config", str(config_path)]) == 0, argv
        return {path: re.sub(rb'"wall_time_ms": \d+', b'"wall_time_ms": 0', path.read_bytes())
                for path in sorted(out.rglob("*")) if path.is_file()}

    first = run_all()
    assert len(first) == 8  # table, report, two samples, three sidecars, summary
    for path in first:
        path.write_bytes(b"junk\n" * (path.stat().st_size + 1))
    assert run_all() == first


def test_infeasible_target_exits_1(tmp_path, config_path, capsys):
    out = tmp_path / "results.csv"
    code = main([
        "ssd", "--config", str(config_path), "--out", str(out),
        "--override", "design_prior.mu=0.0",
        "--override", "design_prior.sigma=1e-12",
    ])
    assert code == 1
    assert "infeasible" in capsys.readouterr().err
    assert read_results_csv(out) == []


def test_unconditional_target_above_the_plateau_is_infeasible_for_every_m(tmp_path, capsys):
    # p_c tops out near 1 - alpha; while n doubles, k0 underflows to 0 in the
    # m = 6 search, which still ends at N_MAX, and m = 8 is searched after it
    out = tmp_path / "results.csv"
    code = main(["ssd", "--paper-defaults", "--m", "6,8",
                 "--override", "target.mode=unconditional",
                 "--override", "target.power=0.995",
                 "--override", "s=300", "--override", "t_count=800",
                 "--out", str(out)])
    assert code == 1
    assert "error: target infeasible for m in [6, 8]" in capsys.readouterr().err
    assert read_results_csv(out) == []


def test_paper_defaults_with_overrides(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = main(["ssd", "--paper-defaults", "--m", "6,8",
                 "--override", "s=600", "--override", "t_count=1500",
                 "--override", "cost.c1=1", "--override", "cost.c2=100",
                 "--seed", "77", "--out", str(out)])
    assert code == 0
    rows = read_results_csv(out)
    assert [r["m"] for r in rows] == [6, 8]
    meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
    assert meta["seed"] == 77
    best, total = cost_select([_result(row) for row in rows], CostSpec(c1=1.0, c2=100.0))
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"cheapest design: n={best.n_star}, m={best.m} (total cost {total:g})")


def _result(row):
    return SsdResult(m=row["m"], n_star=row["n_star"], thresholds=None, probs=None,
                     evaluations=row["evaluations"], seed=row["seed"])


@pytest.mark.parametrize("argv", [
    ["ssd", "--override", "s=abc"],
    ["ssd", "--override", "s=Infinity"],
    ["ssd", "--override", "workers=x"],
    ["ssd", "--override", "workers=0"],
    ["ssd", "--override", 'm_values=[8, "eight"]'],
    ["ssd", "--override", "design_prior.sigma=NaN"],
    ["ssd", "--override", "output.format=xml"],
    ["ssd", "--override", "target.pwer=3", "--override", "worker=4"],
    ["ssd", "--override", "design_prior.scale=1"],
    ["predictive", "--n", "0", "--m", "8"],
    ["predictive", "--n", "80", "--m", "1"],
    ["analyze", "--data", "{bad_csv}", "--n", "50"],
    ["sensitivity", "--mu-gamma", "0.2", "-0.1"],
    ["sensitivity", "--mu-gamma", "0.2", "nan"],
    # fields a subcommand does not use are still checked when present
    ["analyze", "--data", "{good_csv}", "--n", "50", "--override", "t_count=abc"],
    ["analyze", "--data", "{good_csv}", "--n", "50", "--override", "target.alpha=7"],
    ["analyze", "--data", "{good_csv}", "--n", "50",
     "--override", "design_prior.family=nope"],
    ["analyze", "--data", "{good_csv}", "--n", "50", "--override", "m_values=[1]"],
    ["predictive", "--n", "80", "--m", "8", "--override", "target.alpha=7"],
    # int() and float() would run these as s=600, m=8, one worker, nu=1
    ["ssd", "--override", "s=600.7"],
    ["ssd", "--override", "m_values=[8.9]"],
    ["ssd", "--override", "workers=true"],
    ["ssd", "--override", "analysis_prior.nu=true"],
    # JSON reads 1e400 as infinity
    ["ssd", "--override", "analysis_prior.nu=1e400"],
    ["predictive", "--n", "80", "--m", "8", "--override", "design_prior.nu=1e400"],
    ["analyze", "--data", "{good_csv}", "--n", "50",
     "--override", "cost.c1=1e400", "--override", "cost.c2=1"],
    # float() would run these as pi0 = 1 and c1 = 1
    ["analyze", "--data", "{good_csv}", "--n", "50", "--override", "target.pi0=true"],
    ["analyze", "--data", "{good_csv}", "--n", "50",
     "--override", "cost.c1=true", "--override", "cost.c2=0"],
    # an infinite sigma, and one whose square underflows so that Q is infinite
    ["analyze", "--data", "{good_csv}", "--n", "50", "--sigma", "inf"],
    ["analyze", "--data", "{good_csv}", "--n", "50", "--sigma", "1e-200"],
    # there is no output object: --out chooses where and how to write
    ["ssd", "--override", "output.format=json"],
    ["predictive", "--n", "80", "--m", "8", "--override", "output.format=xml"],
    ["analyze", "--data", "{good_csv}", "--n", "50", "--override", "output.format=xml"],
    ["analyze", "--data", "{good_csv}", "--n", "50", "--override", "output.path=5"],
    # rejected while validating, so no thread is started
    ["ssd", "--override", f"workers={(os.cpu_count() or 1) + 1}"],
    # numpy's t draws overflow to inf this far down (FoldedT docstring)
    ["analyze", "--data", "{good_csv}", "--n", "50",
     "--override", "analysis_prior.nu=0.001"],
    # a later --config replaces the fixture's
    ["ssd", "--config", "{missing_json}"],
    ["ssd", "--config", "{list_json}"],
    ["ssd", "--override", "m_values.x=1"],
    ["ssd", "--m", "5..3"],
    ["ssd", "--override", "m_values=8"],
    # designs too large for float64 to hold every integer up to them
    ["analyze", "--data", "{good_csv}", "--n", str(2**64)],
    ["predictive", "--n", str(10**23), "--m", "8"],
    ["ssd", "--m", str(10**23)],
    # simulation sizes beyond float64's integers, or beyond any machine's memory
    ["ssd", "--override", f"s={10**23}"],
    ["predictive", "--n", "80", "--m", "8", "--override", f"t_count={10**23}"],
    ["ssd", "--override", f"s={10**15}"],
    # a range is bounded before it is built
    ["ssd", "--m", f"3..{10**23}"],
], ids=["s", "s-infinite", "workers", "workers-zero", "m-values", "prior-nan",
        "output-format", "unknown-keys", "unknown-prior-key", "predictive-n",
        "predictive-m", "analyze-data", "sensitivity-late-negative-location",
        "sensitivity-late-nan-location", "analyze-t-count", "analyze-alpha",
        "analyze-design-family", "analyze-m-values", "predictive-alpha",
        "s-fraction", "m-values-fraction", "workers-bool", "prior-nu-bool",
        "analysis-prior-nu-infinite", "design-prior-nu-infinite", "cost-c1-infinite",
        "target-pi0-bool", "cost-c1-bool", "analyze-sigma-inf", "analyze-sigma-tiny",
        "output-object", "predictive-output-format", "analyze-output-format",
        "analyze-output-path", "workers-above-cpu-count", "analysis-prior-nu-tiny",
        "config-not-found", "config-top-level-list", "override-through-list",
        "m-empty-range", "m-values-not-a-list", "analyze-n-too-large",
        "predictive-n-too-large", "m-too-large", "s-too-large", "t-count-too-large",
        "s-beyond-memory", "m-range-too-large"])
def test_bad_input_exits_2_before_any_search(argv, tmp_path, config_path, sweeps,
                                             capsys):
    bad_csv = tmp_path / "sites.csv"
    bad_csv.write_text("t\n0.1\nabc\n0.3\n")
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("t\n0.11\n0.39\n0.25\n0.2\n")
    list_json = tmp_path / "list.json"
    list_json.write_text(json.dumps([SMALL_CONFIG]))
    argv = [arg.format(bad_csv=bad_csv, good_csv=good_csv, list_json=list_json,
                       missing_json=tmp_path / "missing.json") for arg in argv]
    code = main(argv[:1] + ["--config", str(config_path),
                            "--out", str(tmp_path / "out")] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err
    assert sweeps == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["predictive", "--n", "80", "--m", "8"],
    ["analyze", "--data", "{good_csv}", "--n", "50"],
    # no subcommand takes --format: a table's format follows its --out name
    ["ssd"],
    ["sensitivity", "--mu-gamma", "0.2"],
], ids=["predictive", "analyze", "ssd", "sensitivity"])
def test_format_is_a_usage_error_where_no_table_is_written(argv, tmp_path, config_path,
                                                           capsys):
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("t\n0.11\n0.39\n0.25\n0.2\n")
    argv = [arg.format(good_csv=good_csv) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--config", str(config_path), "--out", str(tmp_path / "out"),
                     "--format", "json"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_counts_accept_integral_floats_and_errors_name_the_field(tmp_path, config_path,
                                                                 capsys):
    out = tmp_path / "out"
    assert main(["predictive", "--config", str(config_path), "--n", "80", "--m", "8",
                 "--override", "t_count=1e3", "--out", str(out)]) == 0
    assert json.loads((out / "summary_n80_m8.json").read_text())["t_count"] == 1000
    capsys.readouterr()
    for override, message in [("s=600.7", "s must be an integer, got 600.7"),
                              ("analysis_prior.nu=true",
                               "analysis_prior: nu must be a number, got True")]:
        assert main(["ssd", "--config", str(config_path), "--override", override]) == 2
        assert message in capsys.readouterr().err


def test_seed_has_no_upper_bound(tmp_path, config_path):
    out = tmp_path / "out.csv"
    assert main(["ssd", "--config", str(config_path), "--seed", str(2**64),
                 "--out", str(out)]) == 0
    assert json.loads((tmp_path / "out.csv.meta.json").read_text())["seed"] == 2**64


def test_memory_rule_counts_the_float64_a_run_holds(monkeypatch):
    cfg = {**SMALL_CONFIG, "workers": 1}
    held = 8 * ((3 + 2) * SMALL_CONFIG["s"] + 7 * SMALL_CONFIG["t_count"])
    for memory, ok in [(held, True), (held - 1, False)]:
        monkeypatch.setattr(cli.os, "sysconf",
                            {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": memory}.get)
        if ok:
            assert cli._validate_config(cfg, need=set()).s == SMALL_CONFIG["s"]
        else:
            with pytest.raises(ConfigError, match=f"need about {held} bytes"):
                cli._validate_config(cfg, need=set())


def test_config_and_paper_defaults_conflict(config_path, capsys):
    assert main(["ssd", "--config", str(config_path), "--paper-defaults"]) == 2


def test_parse_m_values_forms():
    assert parse_m_values("8") == [8]
    assert parse_m_values("3,5,8") == [3, 5, 8]
    assert parse_m_values("3..6") == [3, 4, 5, 6]
    with pytest.raises(ConfigError):
        parse_m_values("three")


def test_apply_override_paths():
    cfg = {"target": {"alpha": 0.01}}
    apply_override(cfg, "target.alpha=0.05")
    apply_override(cfg, "cost.c1=2.5")
    apply_override(cfg, "note=hello")
    assert cfg["target"]["alpha"] == 0.05
    assert cfg["cost"] == {"c1": 2.5}
    assert cfg["note"] == "hello"
    with pytest.raises(ConfigError):
        apply_override(cfg, "no-equals-sign")


def test_predictive_emits_samples_and_summary(tmp_path, config_path, capsys):
    out = tmp_path / "pred"
    code = main(["predictive", "--config", str(config_path),
                 "--n", "80", "--m", "8", "--out", str(out)])
    assert code == 0
    m0 = load_logbf_csv(out / "bf_m0_n80_m8.csv")
    m1 = load_logbf_csv(out / "bf_m1_n80_m8.csv")
    assert m0.t_count == m1.t_count == 1500
    summary = json.loads((out / "summary_n80_m8.json").read_text())
    assert summary["probs_at_k3"]["p1_c"] == pytest.approx(
        float(np.mean(m1.values < math.log(1 / 3))))
    stdout = capsys.readouterr().out
    assert "probs_at_k3" in stdout


def test_predictive_reruns_byte_identical(tmp_path, config_path):
    out_a, out_b = tmp_path / "p1", tmp_path / "p2"
    for out in (out_a, out_b):
        assert main(["predictive", "--config", str(config_path),
                     "--n", "40", "--m", "6", "--out", str(out)]) == 0
    for name in ("bf_m0_n40_m6.csv", "bf_m1_n40_m6.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_sensitivity_stacks_locations(tmp_path, config_path):
    out = tmp_path / "sens.csv"
    code = main(["sensitivity", "--config", str(config_path),
                 "--mu-gamma", "0.15", "0.3", "--out", str(out)])
    assert code == 0
    rows = read_results_csv(out)
    assert [r["mu_gamma"] for r in rows] == [0.15, 0.3]
    assert rows[0]["n_star"] > rows[1]["n_star"]  # smaller location is harder


def test_sensitivity_sweeps_each_distinct_location_once(tmp_path, config_path, sweeps,
                                                       capsys):
    out = tmp_path / "sens.csv"
    code = main(["sensitivity", "--config", str(config_path), "--m", "8,8",
                 "--mu-gamma", "0.2", "0.2", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert len(sweeps) == 1
    assert [(r["mu_gamma"], r["m"]) for r in read_results_csv(out)] == [(0.2, 8)]
    meta = json.loads((tmp_path / "sens.csv.meta.json").read_text())
    assert meta["mu_gamma_values"] == [0.2]


def test_sensitivity_singleton_matches_ssd(tmp_path, config_path):
    sens = tmp_path / "sens.csv"
    table = tmp_path / "table.csv"
    assert main(["sensitivity", "--config", str(config_path),
                 "--mu-gamma", "0.2", "--out", str(sens)]) == 0
    assert main(["ssd", "--config", str(config_path), "--out", str(table)]) == 0
    sens_rows = read_results_csv(sens)
    table_rows = read_results_csv(table)
    assert [{k: v for k, v in row.items() if k != "mu_gamma"}
            for row in sens_rows] == table_rows


def test_analyze_reports_bf_and_band(tmp_path, config_path, capsys):
    data = tmp_path / "sites.csv"
    data.write_text("t\n0.11\n0.39\n0.25\n0.2\n")
    out = tmp_path / "report.json"
    code = main(["analyze", "--config", str(config_path), "--data", str(data),
                 "--n", "50", "--sigma", "1.0", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    prior = AnalysisPriorSample.draw(HalfT(4, 1 / 7), 600, seed=77)
    expected = bf01_from_data([0.11, 0.39, 0.25, 0.2], 50, 1.0, prior)
    assert report["log_bf01"] == pytest.approx(expected, rel=1e-12)
    assert report["bf01"] == pytest.approx(math.exp(expected), rel=1e-12)
    assert report["m"] == 4 and report["n"] == 50
    assert "evidence" in report["band"]
    assert json.loads(capsys.readouterr().out)["q"] == report["q"]


def test_analyze_constant_column_attains_maximum(tmp_path, config_path):
    data = tmp_path / "flat.csv"
    data.write_text("0.3\n0.3\n0.3\n")
    out = tmp_path / "report.json"
    assert main(["analyze", "--config", str(config_path), "--data", str(data),
                 "--n", "80", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["q"] == 0.0
    assert report["log_bf01"] > 0


def test_evidence_band_labels():
    assert "anecdotal" in evidence_band(2.0)
    assert "moderate" in evidence_band(5.0)
    assert "strong" in evidence_band(30.0)
    assert "M1" in evidence_band(1 / 20)
    assert "M0" in evidence_band(20.0)
    assert evidence_band(1.0) == "no evidence either way"
    # an underflowed and an overflowed BF01
    assert evidence_band(0.0) == "strong evidence for heterogeneity (M1)"
    assert evidence_band(math.inf) == "strong evidence for no heterogeneity (M0)"


def test_analyze_reports_underflowed_bf01_as_strong_evidence(tmp_path, capsys):
    data = tmp_path / "spread.csv"
    data.write_text("t\n0\n10\n20\n30\n")
    code = main(["analyze", "--paper-defaults", "--n", "400", "--data", str(data),
                 "--override", "s=1000"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["bf01"] == 0.0
    assert -math.inf < report["log_bf01"] < -745
    assert report["band"] == "strong evidence for heterogeneity (M1)"


def test_analyze_reports_overflowed_bf01_as_null(tmp_path, capsys):
    data = tmp_path / "equal.csv"
    data.write_text("t\n" + "0.5\n" * 1001)
    code = main(["analyze", "--paper-defaults", "--n", "1000000000", "--data", str(data),
                 "--override", "s=100", "--override", "seed=3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["bf01"] is None
    assert math.log(sys.float_info.max) < report["log_bf01"] < math.inf
    assert report["band"] == "strong evidence for no heterogeneity (M0)"


# Every subcommand at a tiny size, then the SciPy-backed calls, in one
# fresh interpreter; prints the loaded SciPy modules and the call results.
COLD_START = """
import contextlib, io, json, sys
from pathlib import Path
from replisize.cli import main

tmp = Path(sys.argv[1])
(tmp / "sites.csv").write_text("t\\n0.11\\n0.39\\n0.25\\n0.2\\n0.31\\n")
small = ["--paper-defaults", "--override", "s=200", "--override", "t_count=300"]
runs = [["ssd", *small, "--m", "5", "--out", str(tmp / "ssd.csv")],
        ["sensitivity", *small, "--m", "5", "--mu-gamma", "0.2",
         "--out", str(tmp / "sens.csv")],
        ["predictive", *small, "--n", "80", "--m", "8", "--out", str(tmp / "pred.csv")],
        ["analyze", *small, "--data", str(tmp / "sites.csv"), "--n", "80"]]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from replisize.bayes_factor import log_bf01_quadrature
from replisize.distributions import ChiSquared, FoldedT, HalfT
from replisize.model import DesignPoint

half, folded = HalfT(4, 1 / 7), FoldedT(4, 0.2, 1 / 55)
values = [half.pdf(0.1), half.cdf(0.1), half.quantile(0.5), folded.pdf(0.2),
          ChiSquared(7).cdf(6.0), log_bf01_quadrature(9.0, DesignPoint(80, 8), half)]
print(json.dumps({"codes": codes, "loaded": loaded, "values": values}))
"""


def test_cli_loads_no_scipy_and_lazy_calls_work_cold(tmp_path):
    src = Path(replisize.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    assert result["loaded"] == []
    half, folded = HalfT(4, 1 / 7), FoldedT(4, 0.2, 1 / 55)
    assert result["values"] == [
        half.pdf(0.1), half.cdf(0.1), half.quantile(0.5), folded.pdf(0.2),
        ChiSquared(7).cdf(6.0), log_bf01_quadrature(9.0, DesignPoint(80, 8), half)]


def test_package_exports_each_module_all_once():
    modules = [replisize.bayes_factor, replisize.distributions, replisize.evidence,
               replisize.model, replisize.predictive, replisize.ssd]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))  # a star import would shadow a repeat
    assert sorted(replisize.__all__) == sorted(["__version__", *names])
    for module in modules:
        for name in module.__all__:
            assert getattr(replisize, name) is getattr(module, name), name
