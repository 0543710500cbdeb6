"""Steadiness mode: repeat benchmark runs in fresh processes and summarize.

    python3 perfbench/steady.py [--runs N] [--seed0 S]

Runs `perfbench/run.py --trace 0` N times per workload for BENCHMARK.json's
run_seconds, one process at a time, with seeds S, S+1, ... (S defaults to
interactions.json's default_seed), cycling through the workloads so that
slow drift on the machine spreads over all of them. For each workload it prints
every end-to-end metric's median and quartiles, the spread (interquartile
range over the median) against the metric's bound in BENCHMARK.json, and
the fail ratio (failed over attempted instance runs). With --runs 1 it is
the one command that prints every workload's metrics. Exits 1 if any run
failed or a spread exceeds its bound. To compare two sets, run it twice
with the same --seed0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import workloads

RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(workloads.ROOT, "perfbench", "interactions.json"), encoding="utf-8") as fh:
        default_seed = json.load(fh)["default_seed"]
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description="Repeat benchmark runs and summarize their spread.")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seed0", type=int, default=default_seed)
    args = p.parse_args(argv)

    results = {w: [] for w in names}
    ok = True
    for i in range(args.runs):
        for w in names:
            cmd = [sys.executable, os.path.join(workloads.ROOT, "perfbench", "run.py"),
                   "--workload", w, "--seed", str(args.seed0 + i),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s%s" % (w, args.seed0 + i, proc.returncode,
                                                     proc.stdout, proc.stderr))
                ok = False
            if not lines:
                continue
            res = json.loads(lines[-1])
            results[w].append(res)
            print("%s seed %d: %s" % (w, args.seed0 + i, " ".join(
                "%s=%.4f" % (k, m["value"]) for k, m in res["metrics"].items())), flush=True)

    print()
    print("%-11s %-12s %6s %12s %12s %12s %8s %6s" % (
        "workload", "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for w in names:
        runs = results[w]
        if not runs:
            continue
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        for spec in bench["end_to_end"]:
            values = [r["metrics"][spec["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            if spread > spec["bound"]:
                ok = False
            print("%-11s %-12s %6s %12.6f %12.6f %12.6f %8.4f %6.2f" % (
                w, spec["name"], spec["unit"], med, q1, q3, spread, spec["bound"]))
        print("%-11s %-12s %6s %12.6f   (%d of %d instance runs, %d runs)" % (
            w, "fail_ratio", "ratio", failed / attempted, failed, attempted, len(runs)))
        ok = ok and failed == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
