"""Record a change's benchmark numbers, beside its parent's, in BENCH_<pr>.json.

    python3 tools/bench_record.py --pr 6 --parent HEAD~1 --seed 7

The change is this checkout's working tree; the parent revision is exported
with ``git archive`` into a temporary directory.  For each workload of
``perfbench/run.py`` the script runs ten parent/change pairs at the
benchmark's own ``run_seconds``, alternating which side runs first, and
keeps every run's result line and the first ``info`` line.  It then makes
one ``--trace 1`` run per side and keeps its per-layer metrics (kernel
ns per element, busy seconds, page faults, ...) with the change's ratio to
the parent, so a saving shows in the layer where it happens.  Per side it
counts errored runs, incorrect runs and failed operations.  Per end-to-end
metric it gives each side's median and quartiles, the pairs the change won
and a verdict against the metric's bound (from ``BENCHMARK.json``):

* ``incomplete``: fewer than ten valid pairs, or the change failed more
  operations or had more incorrect runs than the parent;
* ``unresolved``: the parent's interquartile range is wider than the bound
  (relative to its median) and the change's runs do not all beat all the
  parent's runs, so the spread hides any shift the bound could catch;
* ``in_bound`` or ``out_of_bound``: the change's median against the
  parent's median and the bound.

``gain`` is true when the change won at least nine of the ten pairs and its
median beats the parent's by more than the parent's interquartile range.

``cli_cold_start`` times ten alternating parent/change pairs of fresh
``replisize analyze --paper-defaults --n 80`` processes on one fixed 5-site
CSV: per side the median and quartiles of wall time (start-up included,
which is most of it) and the largest ``ru_maxrss``, the pairs the change
won, and whether both sides printed the same stdout.

For both trees it also records the ``src/`` line count, the wall time of
the tier-1 suite and the wall time of ``replisize ssd --paper-defaults
--m 3..17``, with whether that table equals
``tests/data/paper_table_conditional.csv`` byte for byte: the paper-scale
check of the kernel search that the tier-1 suite cannot afford.  This
takes about an hour and a half on two cores.  Run nothing else
meanwhile: every timing here shares the machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PAIRS = 10
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
CLI = [sys.executable, "-c", "import sys; from replisize.cli import main; sys.exit(main())"]
SSD_TABLE = CLI + ["ssd", "--paper-defaults", "--m", "3..17"]
ANALYZE = CLI + ["analyze", "--paper-defaults", "--n", "80", "--data"]
PAPER_TABLE = ROOT / "tests" / "data" / "paper_table_conditional.csv"
SITES = "t\n0.11\n0.39\n0.25\n0.20\n0.31\n"


def src_lines(tree):
    return sum(len(p.read_text().splitlines()) for p in (tree / "src").rglob("*.py"))


def run_bench(tree, workload, seed, trace=0):
    """Result and info lines of one perfbench run, or its error."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), None)
    if proc.returncode != 0 or not lines:
        return {"error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}, info
    return json.loads(lines[-1]), info


def timed(argv, tree, cwd):
    """Wall seconds, exit code and last output line of a command run in
    ``cwd`` against the package in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - started
    tail = (proc.stdout.strip().splitlines() or [""])[-1]
    return {"wall_s": round(wall, 2), "exit": proc.returncode, "last_line": tail}


def cold_start(tree, data):
    """Wall seconds, peak RSS (KB), exit code and stdout of one fresh
    ``analyze`` process against the package in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    started = time.perf_counter()
    proc = subprocess.Popen(ANALYZE + [str(data)], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    with proc.stdout:
        stdout = proc.stdout.read()
    # wait4, not wait: it returns this child's own resource usage.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode, stdout


def cli_cold_start(trees, tmp):
    """Ten alternating parent/change pairs of ``cold_start``, summarised."""
    data = Path(tmp) / "sites.csv"
    data.write_text(SITES)
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(cold_start(trees[side], data))
    summary = {"command": "replisize " + " ".join(ANALYZE[3:]) + " sites.csv",
               "sites_csv": SITES, "pairs": PAIRS,
               "same_stdout": len({out for side in runs.values()
                                   for _, _, _, out in side}) == 1,
               "change_wins": sum(c[0] < p[0] for p, c in zip(runs["parent"], runs["change"]))}
    for side, results in runs.items():
        walls = [wall for wall, _, _, _ in results]
        q1, median, q3 = statistics.quantiles(walls, n=4)
        summary[side] = {"wall_s": walls, "wall_median_s": median,
                         "wall_q1_s": q1, "wall_q3_s": q3,
                         "max_rss_mb": max(rss for _, rss, _, _ in results) / 1024,
                         "exits": sorted({code for _, _, code, _ in results})}
    return summary


def side_health(runs):
    """Errored runs, incorrect runs and failed operations of one side."""
    return {"runs": len(runs),
            "errored": sum("metrics" not in r for r in runs),
            "incorrect": sum(r.get("correct") is False for r in runs),
            "failed_ops": sum(r.get("failed", 0) for r in runs)}


def summarize(runs):
    """Per side: run health.  Per end-to-end metric: medians, quartiles,
    pair wins and a verdict against the bound (see the module docstring)."""
    health = {side: side_health(runs[side]) for side in ("parent", "change")}
    worse_health = any(health["change"][k] > health["parent"][k]
                       for k in ("incorrect", "failed_ops"))
    summary = {"health": health, "metrics": {}}
    for spec in BENCHMARK["end_to_end"]:
        name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(runs["parent"], runs["change"])
                 if "metrics" in p and "metrics" in c]
        entry = {"pairs": len(pairs)}
        summary["metrics"][name] = entry
        if not pairs:
            entry["verdict"] = "incomplete"
            continue
        for side, values in zip(("parent", "change"), zip(*pairs)):
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else [values[0]] * 3)
            entry[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
        parents, changes = zip(*pairs)
        base, new = entry["parent"]["median"], entry["change"]["median"]
        spread = (entry["parent"]["q3"] - entry["parent"]["q1"]) / abs(base)
        # every change run better than every parent run
        separated = max(sign * c for c in changes) < min(sign * p for p in parents)
        if len(pairs) < PAIRS or worse_health:
            verdict = "incomplete"
        elif spread > spec["bound"] and not separated:
            verdict = "unresolved"
        elif sign * (new - base) <= spec["bound"] * abs(base):
            verdict = "in_bound"
        else:
            verdict = "out_of_bound"
        wins = sum(sign * (c - p) < 0 for p, c in pairs)
        entry.update(change_wins=wins, rel_change=(new - base) / base,
                     parent_rel_iqr=spread, separated=separated, verdict=verdict,
                     gain=(verdict != "incomplete" and wins >= PAIRS - 1
                           and sign * (base - new) > spread * abs(base)))
    return summary


def per_layer(traced):
    """Each side's traced run, and per layer metric the change's value
    over the parent's (None where either side lacks it or the parent is 0)."""
    values = {side: {name: m["value"] for name, m in r.get("metrics", {}).items()}
              for side, r in traced.items()}
    ratios = {name: (values["change"][name] / base
                     if base and name in values["change"] else None)
              for name, base in values["parent"].items()}
    return {"runs": traced, "change_over_parent": ratios}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    parent_sha = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    head_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src", "tests"],
                           cwd=ROOT, check=True, capture_output=True, text=True).stdout
    out = ROOT / f"BENCH_{args.pr}.json"
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp) / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        trees = {"parent": parent, "change": ROOT}

        record = {"pr": args.pr, "parent": parent_sha, "checkout_head": head_sha,
                  "checkout_src_or_tests_modified": bool(dirty.strip()),
                  "seed": args.seed, "seconds": BENCHMARK["run_seconds"], "pairs": PAIRS,
                  "info": None, "perfbench": {}}
        record["cli_cold_start"] = cli_cold_start(trees, tmp)
        print(f"cli_cold_start: {json.dumps(record['cli_cold_start'])[:400]}",
              file=sys.stderr)
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            runs = {"parent": [], "change": []}
            for i in range(PAIRS):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    result, info = run_bench(trees[side], workload, args.seed)
                    print(f"{workload} pair {i} {side}: {json.dumps(result)[:160]}",
                          file=sys.stderr)
                    runs[side].append(result)
                    if side == "change" and record["info"] is None:
                        record["info"] = info
            traced = {side: run_bench(trees[side], workload, args.seed, trace=1)[0]
                      for side in ("parent", "change")}
            record["perfbench"][workload] = {"runs": runs, "summary": summarize(runs),
                                             "per_layer": per_layer(traced)}
            out.write_text(json.dumps(record, indent=1) + "\n")  # keep partial results

        record["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        record["tier1_suite"] = {"command": "python -m pytest -q "
                                            "--continue-on-collection-errors"}
        record["ssd_paper_table"] = {"command": "replisize " + " ".join(SSD_TABLE[3:])}
        for side, tree in trees.items():
            record["tier1_suite"][side] = timed(TIER1, tree, cwd=tree)
            work = Path(tmp) / f"table-{side}"
            work.mkdir()
            table = work / "table.csv"
            record["ssd_paper_table"][side] = timed(
                SSD_TABLE + ["--out", str(table)], tree, cwd=work)
            record["ssd_paper_table"][side]["matches_reference"] = (
                table.is_file() and table.read_bytes() == PAPER_TABLE.read_bytes())
            print(f"{side}: tier-1 {record['tier1_suite'][side]}, "
                  f"ssd table {record['ssd_paper_table'][side]}", file=sys.stderr)

    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
