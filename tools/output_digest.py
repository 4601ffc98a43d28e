"""Print one sha256 per CLI output file and demo, for byte-identity checks.

Runs the ``replisize`` subcommands in-process at small simulation sizes
(ssd as CSV and JSON, unconditional ssd, sensitivity, predictive with one
and two workers, analyze), masks the ``wall_time_ms`` values, and prints
``<sha256>  <file>`` for every file written and ``<sha256>  <run> (stdout)``
for what each run printed.  It then runs every ``demos/*.py`` of this
checkout in a fresh process against the same package and prints
``<sha256>  <demo> (stdout+stderr)``; the demos cover library values no CLI
run reaches (quantiles, densities, quadrature).  Two checkouts whose
outputs agree byte for byte print the same lines:

    python3 tools/output_digest.py > mine.txt
    python3 tools/output_digest.py --src ../other/src > theirs.txt
    diff mine.txt theirs.txt

Takes about 20 seconds on two cores, most of it in the demos.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = {
    "analysis_prior": {"family": "half_t", "nu": 4.0, "sigma": 1 / 7},
    "design_prior": {"family": "folded_t", "nu": 4.0, "mu": 0.2, "sigma": 1 / 55},
    "s": 600,
    "t_count": 1500,
    "seed": 77,
    "m_values": [6, 8],
    "target": {"mode": "conditional", "alpha": 0.05, "power": 0.8},
    "cost": {"c1": 1.0, "c2": 100.0},
}

SITE_EFFECTS = "t\n0.11\n0.39\n0.25\n0.2\n"

PREDICTIVE_SIZES = ["--override", "s=2000", "--override", "t_count=5000"]

# (output name, argv after the config arguments)
RUNS = [
    ("ssd.csv", ["ssd", "--out", "{out}"]),
    ("ssd.json", ["ssd", "--format", "json", "--out", "{out}"]),
    ("ssd_unconditional.csv", ["ssd", "--override", "target.mode=unconditional",
                               "--out", "{out}"]),
    ("sensitivity.csv", ["sensitivity", "--mu-gamma", "0.15", "0.3",
                         "--out", "{out}"]),
    # s and t_count large enough that the kernel runs in several chunks
    ("predictive_w1", ["predictive", "--n", "80", "--m", "8", *PREDICTIVE_SIZES,
                       "--out", "{out}"]),
    ("predictive_w2", ["predictive", "--n", "80", "--m", "8", *PREDICTIVE_SIZES,
                       "--override", "workers=2", "--out", "{out}"]),
    ("analyze.json", ["analyze", "--data", "{data}", "--n", "50", "--out", "{out}"]),
]

DEMOS = Path(__file__).resolve().parents[1] / "demos"

_WALL_TIME = re.compile(rb'"wall_time_ms": \d+')


def masked_digest(data):
    return hashlib.sha256(_WALL_TIME.sub(b'"wall_time_ms": 0', data)).hexdigest()


def demo_output(demo, src, cwd):
    """stdout then stderr of one demo run against the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"{demo.name} exited {proc.returncode}:\n"
                         f"{proc.stderr.decode(errors='replace')}")
    return proc.stdout + proc.stderr


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the replisize package (default: "
                             "this checkout's src)")
    args = parser.parse_args(argv)
    src = str(Path(args.src).resolve())  # the demos run from a temporary directory
    sys.path.insert(0, src)
    from replisize import cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # relative paths: analyze records its data path in the report
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(CONFIG))
            Path("sites.csv").write_text(SITE_EFFECTS)
            outputs = Path("outputs")
            outputs.mkdir()
            stdouts = []
            for name, tail in RUNS:
                argv = [tail[0], "--config", "config.json"] + [
                    arg.format(out=outputs / name, data="sites.csv") for arg in tail[1:]]
                with contextlib.redirect_stdout(io.StringIO()) as printed:
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} exited {code}")
                stdouts.append((name, printed.getvalue()))
            for path in sorted(p for p in outputs.rglob("*") if p.is_file()):
                print(f"{masked_digest(path.read_bytes())}  {path.relative_to(outputs)}")
            for name, text in stdouts:
                print(f"{masked_digest(text.encode())}  {name} (stdout)")
            for demo in sorted(DEMOS.glob("*.py")):
                digest = masked_digest(demo_output(demo, src, tmp))
                print(f"{digest}  demos/{demo.name} (stdout+stderr)")
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
