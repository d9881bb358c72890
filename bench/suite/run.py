#!/usr/bin/env python3
"""Front end of verdict-bench: build from source, run, calibrate, compare.

Run one workload (what BENCHMARK.json names; the last stdout line is the
result object):

    python3 bench/suite/run.py --workload fig6_proof --seed 1 --seconds 15 --trace 0

Every invocation first brings two builds up to date under .bench_build/ at
the repository root: the repository's libraries and verdictd, then the
verdict-bench binary linked against them. Remaining arguments go to
verdict-bench unchanged (see src/main.cpp).

Calibrate: N seeds of each workload, untraced, with the run-to-run spread of
every end-to-end metric and the bound it suggests:

    python3 bench/suite/run.py --calibrate 10 --out results/calibration.json

Compare two calibrations (say, parent and change) under BENCHMARK.json's
bounds; exits 1 on a regression or on any changed verdict:

    python3 bench/suite/run.py --compare A.json B.json
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
SUITE = Path(__file__).resolve().parent

# Spread above which an end-to-end metric cannot carry a regression bound.
DEMOTE_ABOVE = 0.10
MAX_BOUND = 0.25
SETUP_FLOOR_S = 0.05


def fail(message):
    print(f"verdict-bench: {message}", file=sys.stderr)
    sys.exit(2)


def run_build_step(cmd):
    result = subprocess.run([str(c) for c in cmd], cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(str(c) for c in cmd))


def build():
    """Configures and builds what the benchmark needs; returns its binaries."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no verdict source tree at {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 1)
    verdict_dir = BUILD / "verdict"
    if not (verdict_dir / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-S", ROOT, "-B", verdict_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    # Every library target of the tree, so that one added later is built too.
    libraries = set()
    for cmakelists in (ROOT / "src").glob("*/CMakeLists.txt"):
        libraries.update(re.findall(r"add_library\(\s*(verdict_\w+)\s+STATIC", cmakelists.read_text()))
    if not libraries:
        fail("no verdict_* libraries under src/")
    run_build_step(["cmake", "--build", verdict_dir, "-j", jobs, "--target", "verdictd",
                    *sorted(libraries)])
    suite_dir = BUILD / "suite"
    if not (suite_dir / "CMakeCache.txt").is_file():
        run_build_step(["cmake", "-S", SUITE, "-B", suite_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", f"-DVERDICT_BUILD_DIR={verdict_dir}"])
    run_build_step(["cmake", "--build", suite_dir, "-j", jobs])
    return suite_dir / "verdict-bench", verdict_dir / "tools" / "verdictd"


def run_workload(binary, verdictd, args, capture=False):
    cmd = [str(binary), *args, "--verdictd", os.path.relpath(verdictd, ROOT),
           "--work-dir", os.path.relpath(BUILD / "tmp", ROOT)]
    if capture:
        return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return subprocess.run(cmd, cwd=ROOT)


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spread(values):
    """Median, quartiles (statistics.quantiles, n=4) and IQR / median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "rel_iqr": (q3 - q1) / med if med else 0.0, "values": values}


def calibrate(binary, verdictd, runs, seconds, workloads, first_seed, out):
    if runs < 5:
        fail("--calibrate needs at least 5 runs")
    bench = benchmark_json()
    workloads = workloads or [w["name"] for w in bench["workloads"]]
    doc_dir = BUILD / "calibration"
    doc_dir.mkdir(parents=True, exist_ok=True)
    report = {"schema": "verdict-bench-calibration-v1", "seconds": seconds, "workloads": {}}
    for workload in workloads:
        entries = []
        for seed in range(first_seed, first_seed + runs):
            doc = doc_dir / f"{workload}.{seed}.json"
            result = run_workload(binary, verdictd, ["--workload", workload, "--seed", str(seed),
                                                     "--seconds", str(seconds), "--trace", "0",
                                                     "--out", str(doc)], capture=True)
            line = json.loads(result.stdout.strip().splitlines()[-1])
            full = json.loads(doc.read_text())
            verdicts = {}
            for row in full["rows"]:
                verdicts.setdefault(row["instance"], set()).add(row["verdict"])
            entries.append({"seed": seed, "exit": result.returncode, "correct": line["correct"],
                            "attempted": line["attempted"], "failed": line["failed"],
                            "end_to_end": {k: v["value"] for k, v in line["metrics"].items()},
                            "diagnostics": full["diagnostics"],
                            "verdicts": {k: sorted(v) for k, v in verdicts.items()}})
            report.setdefault("provenance", full["provenance"])
            print(f"{workload} seed {seed}: exit {result.returncode} "
                  + " ".join(f"{k}={v:.6g}" for k, v in entries[-1]["end_to_end"].items()),
                  file=sys.stderr)
        metrics = {}
        for name in entries[0]["end_to_end"]:
            s = spread([e["end_to_end"][name] for e in entries])
            # The bound must hold its own noise three times over.
            s["suggested_bound"] = min(MAX_BOUND, max(0.10, 3 * s["rel_iqr"]))
            s["demote"] = name != "setup_s" and s["rel_iqr"] > DEMOTE_ABOVE
            metrics[name] = s
        report["workloads"][workload] = {"runs": entries, "spread": metrics}
    Path(out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"{'workload':16} {'metric':20} {'median':>12} {'rel_iqr':>8} {'bound':>6}")
    for workload, w in report["workloads"].items():
        for name, s in w["spread"].items():
            print(f"{workload:16} {name:20} {s['median']:12.6g} {s['rel_iqr']:8.4f} "
                  f"{s['suggested_bound']:6.3f}{'  DEMOTE' if s['demote'] else ''}")


def verdicts_by(runs, key):
    seen = {}
    for run in runs:
        for instance, verdicts in run["verdicts"].items():
            seen.setdefault(key(run, instance), set()).update(verdicts)
    return seen


def compare(a_path, b_path):
    """choosing-metrics section 8: each (workload, metric) pair on its own row."""
    a = json.loads(Path(a_path).read_text())
    b = json.loads(Path(b_path).read_text())
    metrics = {m["name"]: m for m in benchmark_json()["end_to_end"]}
    problems = []
    print(f"{'workload':16} {'metric':20} {'A median':>12} {'A q1..q3':>23} {'B median':>12} "
          f"{'B q1..q3':>23} {'bound':>6}  verdict")
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        runs_a = a["workloads"][workload]["runs"]
        runs_b = b["workloads"][workload]["runs"]
        # Any changed verdict is a hard failure: per (seed, instance) where
        # both sides ran the seed, and per instance where A's verdict did not
        # depend on the seed (the paper workloads).
        for key in (lambda run, i: (run["seed"], i), lambda run, i: i):
            seen_a, seen_b = verdicts_by(runs_a, key), verdicts_by(runs_b, key)
            for k in sorted(set(seen_a) & set(seen_b), key=str):
                if len(seen_a[k]) == 1 and seen_a[k] != seen_b[k]:
                    problems.append(f"CHANGED VERDICT {workload} {k}: "
                                    f"{sorted(seen_a[k])} -> {sorted(seen_b[k])}")
        if any(not r["correct"] for r in runs_b):
            problems.append(f"WRONG VERDICTS in B on {workload}")
        # No decided verdict may be lost; failures may rise by 0.005 at most.
        failed = [statistics.median(r["failed"] / r["attempted"] for r in runs)
                  for runs in (runs_a, runs_b)]
        if failed[1] > failed[0] + 0.005:
            problems.append(f"FAILED FRACTION on {workload}: {failed[0]:.4f} -> {failed[1]:.4f}")
        decided = [statistics.median(r["diagnostics"]["decided_frac"] for r in runs)
                   for runs in (runs_a, runs_b)]
        if decided[1] < decided[0]:
            problems.append(f"DECIDED FRACTION on {workload}: {decided[0]:.4f} -> {decided[1]:.4f}")
        for name, metric in metrics.items():
            va = [r["end_to_end"][name] for r in runs_a if name in r["end_to_end"]]
            vb = [r["end_to_end"][name] for r in runs_b if name in r["end_to_end"]]
            if not va or not vb:
                continue
            sa, sb = spread(va), spread(vb)
            sign = 1 if metric["better"] == "lower" else -1
            change = sign * (sb["median"] - sa["median"]) / sa["median"] if sa["median"] else 0.0
            pairs = list(zip(va, vb))
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            # Set-up times of a few milliseconds: 50 ms is the least that counts.
            floor = SETUP_FLOOR_S if name == "setup_s" else 0.0
            if change > metric["bound"] and abs(sb["median"] - sa["median"]) > floor:
                verdict = "worse"
                problems.append(f"REGRESSION {workload} {name}")
            elif (wins >= 0.9 * len(pairs) and
                  abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"]):
                verdict = "better"
            elif sa["rel_iqr"] > metric["bound"] and not all(
                    sign * (y - x) < 0 for x in va for y in vb):
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"{workload:16} {name:20} {sa['median']:12.6g} "
                  f"{sa['q1']:11.5g}..{sa['q3']:<10.5g} {sb['median']:12.6g} "
                  f"{sb['q1']:11.5g}..{sb['q3']:<10.5g} {metric['bound']:6.3f}  {verdict}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0], add_help=False)
    parser.add_argument("--calibrate", type=int)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--help", "-h", action="store_true")
    known, rest = parser.parse_known_args()
    if known.help:
        print(__doc__)
        return 0
    if known.compare:
        return compare(*known.compare)
    binary, verdictd = build()
    if known.calibrate is not None:
        options = argparse.ArgumentParser()
        options.add_argument("--seconds", type=float, default=benchmark_json()["run_seconds"])
        options.add_argument("--workload", action="append")
        options.add_argument("--first-seed", type=int, default=1)
        options.add_argument("--out", default=str(BUILD / "calibration.json"))
        args = options.parse_args(rest)
        calibrate(binary, verdictd, known.calibrate, args.seconds, args.workload,
                  args.first_seed, args.out)
        return 0
    return run_workload(binary, verdictd, rest).returncode


if __name__ == "__main__":
    sys.exit(main())
