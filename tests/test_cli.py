import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
)
from replisize.distributions import ChiSquared, FoldedT, HalfT
from replisize.model import DesignPoint
from replisize.predictive import load_logbf_csv
from replisize.ssd import RESULT_COLUMNS

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
    code = main(["ssd", "--config", str(config_path), "--out", str(out),
                 "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["results"][0]["m"] == 8
    assert payload["meta"]["t_count"] == 1500


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


def test_no_config_source_exits_2(capsys):
    assert main(["ssd"]) == 2
    assert "config" in capsys.readouterr().err


def test_unwritable_output_exits_3(config_path, capsys):
    code = main(["ssd", "--config", str(config_path),
                 "--out", "/nonexistent-dir/results.csv"])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


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


def test_paper_defaults_with_overrides(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = main(["ssd", "--paper-defaults", "--m", "8",
                 "--override", "s=600", "--override", "t_count=1500",
                 "--seed", "77", "--out", str(out)])
    assert code == 0
    rows = read_results_csv(out)
    assert [r["m"] for r in rows] == [8]
    meta = json.loads((tmp_path / "results.csv.meta.json").read_text())
    assert meta["seed"] == 77


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
], ids=["s", "s-infinite", "workers", "workers-zero", "m-values", "prior-nan",
        "output-format", "unknown-keys", "unknown-prior-key", "predictive-n",
        "predictive-m", "analyze-data", "sensitivity-late-negative-location",
        "sensitivity-late-nan-location", "analyze-t-count", "analyze-alpha",
        "analyze-design-family", "analyze-m-values", "predictive-alpha",
        "s-fraction", "m-values-fraction", "workers-bool", "prior-nu-bool"])
def test_bad_input_exits_2_before_any_search(argv, tmp_path, config_path,
                                             monkeypatch, capsys):
    bad_csv = tmp_path / "sites.csv"
    bad_csv.write_text("t\n0.1\nabc\n0.3\n")
    good_csv = tmp_path / "good.csv"
    good_csv.write_text("t\n0.11\n0.39\n0.25\n0.2\n")
    sweeps = []
    monkeypatch.setattr("replisize.cli._run_sweep", lambda *a, **k: sweeps.append(a))
    argv = [arg.format(bad_csv=bad_csv, good_csv=good_csv) for arg in argv]
    code = main(argv[:1] + ["--config", str(config_path),
                            "--out", str(tmp_path / "out")] + argv[1:])
    err = capsys.readouterr().err
    assert code == 2
    assert "config error" in err and "Traceback" not in err
    assert sweeps == []


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


def test_sensitivity_sweeps_each_distinct_location_once(tmp_path, config_path,
                                                       monkeypatch, capsys):
    sweeps = []
    real_sweep = cli._run_sweep
    monkeypatch.setattr(cli, "_run_sweep",
                        lambda *a, **k: sweeps.append(a) or real_sweep(*a, **k))
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
