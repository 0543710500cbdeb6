"""End-to-end benchmark of `liftedmap map`, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Closed loop, one client, one process, no threads: each instance of the
workload's ladder (see workloads.py) is one in-process
`liftedmap.cli.main(["map", ..., "--out", FILE])` call, from generated input
files to the decoded MAP written as JSON. Passes over the ladder repeat
while the next one is expected to end within S seconds (at least one).

With --trace 0 the run reports the end-to-end metrics:

* setup_s: median over fresh set-up processes (one before the first pass,
  SETUPS_PER_PASS after each pass, at least MIN_SETUPS) of the time from
  the set-up script's first statement to inputs on disk: importing
  liftedmap, generating the seeded inputs and writing them. Interpreter
  start and process creation are not timed: they are not the program's,
  and process creation varies with the size of this process. The set-ups
  must write byte-identical files.
* pass_s: median wall time of one pass (the sum of its `map` calls).
* peak_rss_mb: peak resident memory of this process after the passes.

With --trace 1, untraced and traced passes alternate, and the run reports
the per-layer metrics (tracing.py) of the median traced pass, plus the
tracing overhead (traced minus untraced median pass). Spans are written to
.perfbench/<workload>-seed<N>/spans.jsonl.

Every output is checked outside the timed region (checks.py), and every
pass must give the same output as the first apart from timings. A run
fails (failed > 0, exit status 1) if an instance raises, exits non-zero
(3 = solver failure, 4 = cut cap), gives a different output than in the
first pass, or fails its check. The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import os

# One process, no threads: keep numpy's BLAS on this thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_PASS = 3
MIN_SETUPS = 15
SETUP_TIMEOUT_S = 60


class SetUps:
    """Fresh-process set-ups of one workload and seed.

    The first set-up writes the inputs the passes read; each later one runs
    between passes, so that the set-up median covers the same stretch of
    time as the pass median, and must write byte-identical files.
    """

    def __init__(self, workload: str, seed: int, work: str):
        self.args = ["--workload", workload, "--seed", str(seed)]
        self.work = work
        self.times = []
        self.first = None  # file name -> bytes written by the first set-up
        self.identical = True
        self.in_dir = os.path.join(work, "setup0")

    def run(self):
        """One set-up; raises RuntimeError or TimeoutExpired when it fails."""
        directory = os.path.join(self.work, "setup%d" % len(self.times))
        cmd = [sys.executable, workloads.__file__] + self.args + ["--dir", directory]
        proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("set-up failed (exit %d): %s" % (proc.returncode, proc.stderr.strip()))
        self.times.append(float(proc.stdout.split()[-1]))
        files = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as fh:
                files[name] = fh.read()
        if self.first is None:
            self.first = files
        else:
            self.identical = self.identical and files == self.first
            shutil.rmtree(directory)


class Runner:
    """Runs passes over one ladder and keeps what each call returned."""

    def __init__(self, cli, ladder, in_dir: str, out_dir: str):
        self.cli = cli
        self.ladder = ladder
        os.makedirs(out_dir, exist_ok=True)
        self.outs = [os.path.join(out_dir, inst.name + ".json") for inst in ladder]
        self.argvs = [inst.argv(in_dir) + ["--out", out] for inst, out in zip(ladder, self.outs)]
        self.runs = [[] for _ in ladder]  # per instance: (exit code or error, output dict)
        self.seconds = [[] for _ in ladder]  # per instance: wall time of each call
        self.passes = 0

    def run_pass(self, tracer=None) -> float:
        """Wall time of one pass: the sum of its `map` calls."""
        total = 0.0
        for k, argv in enumerate(self.argvs):
            if os.path.exists(self.outs[k]):
                os.remove(self.outs[k])
            main = self.cli.main
            if tracer is not None:
                tracer.instance = "%d:%s" % (self.passes, self.ladder[k].name)
                main = tracer.wrap("cli.main", main)
            gc.collect()
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except (Exception, SystemExit) as exc:
                rc = "raised %r" % (exc,)
            took = time.perf_counter() - t0
            total += took
            self.seconds[k].append(took)
            out = None
            if rc == 0:
                try:
                    with open(self.outs[k], encoding="utf-8") as fh:
                        out = json.load(fh)
                    out.pop("timings_ms", None)
                except (OSError, ValueError) as exc:
                    rc = "exit 0 without readable output: %r" % (exc,)
            self.runs[k].append((rc, out))
        self.passes += 1
        return total

    def failures(self, in_dir: str) -> dict:
        """(instance, pass) -> what failed, for every failed instance run."""
        import checks  # only now: its scipy import must not count in peak_rss_mb

        bad = {}
        for inst, runs in zip(self.ladder, self.runs):
            try:
                ref = checks.Reference(inst, os.path.join(in_dir, inst.filename))
            except Exception as exc:  # a broken reference fails every run of it
                for p in range(len(runs)):
                    bad[inst.name, p] = ["reference failed: %r" % (exc,)]
                continue
            first = next((out for rc, out in runs if rc == 0), None)
            for p, (rc, out) in enumerate(runs):
                if rc != 0:
                    problems = ["exit %s" % (rc,)]
                elif out != first:
                    problems = ["output differs from the first successful pass"]
                else:
                    try:
                        problems = ref.problems(out)
                    except Exception as exc:
                        problems = ["check raised %r" % (exc,)]
                if problems:
                    bad[inst.name, p] = problems
        return bad


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="End-to-end benchmark of `liftedmap map`.")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    work = os.path.join(workloads.ROOT, ".perfbench", "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    setups = SetUps(args.workload, args.seed, work)
    try:
        setups.run()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.path.insert(0, workloads.SRC)
    import liftedmap.cli as cli

    if not cli.__file__.startswith(workloads.SRC + os.sep):
        print("error: liftedmap was imported from outside %s" % workloads.SRC, file=sys.stderr)
        return 2

    ladder = workloads.instances(args.workload, args.seed)
    runner = Runner(cli, ladder, setups.in_dir, os.path.join(work, "out"))
    print("workload %s seed %d: %s" % (args.workload, args.seed, ", ".join(i.name for i in ladder)))

    untraced, traced, traced_spans = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            t0 = time.perf_counter()
            if tracer is not None and len(untraced) > len(traced):
                first = len(tracer.spans)
                with tracer.installed():
                    traced.append(runner.run_pass(tracer))
                traced_spans.append((first, len(tracer.spans)))
            else:
                untraced.append(runner.run_pass())
            for _ in range(SETUPS_PER_PASS):
                setups.run()
            # stop before a pass that would likely end past the deadline
            now = time.perf_counter()
            if now + (now - t0) > deadline and (tracer is None or traced):
                break
        while len(setups.times) < MIN_SETUPS:
            setups.run()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    bad = runner.failures(setups.in_dir)
    for (name, p), problems in bad.items():
        print("FAIL %s pass %d: %s" % (name, p, "; ".join(problems)))
    if not setups.identical:
        print("FAIL set-up: the %d set-ups wrote different files for one seed" % len(setups.times))
    attempted = sum(len(runs) for runs in runner.runs)
    failed = len(bad)
    print("passes: %d untraced %s" % (len(untraced), ["%.3f" % t for t in untraced]))
    print("set-ups: %d %s" % (len(setups.times), ["%.3f" % t for t in setups.times]))
    print("median call: " + ", ".join("%s %.3f s" % (inst.name, statistics.median(ts))
                                      for inst, ts in zip(ladder, runner.seconds)))
    print("fail_ratio %.4f (%d of %d instance runs)" % (failed / attempted, failed, attempted))

    if tracer is None:
        metrics = {
            "setup_s": metric(statistics.median(setups.times), "s"),
            "pass_s": metric(statistics.median(untraced), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        metrics = traced_report(tracer, traced, traced_spans, statistics.median(untraced))
        tracer.dump(os.path.join(work, "spans.jsonl"))
    for name, m in metrics.items():
        print("%-28s %14.6f %s" % (name, m["value"], m["unit"]))
    ok = failed == 0 and setups.identical
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


def traced_report(tracer, traced, traced_spans, untraced_median) -> dict:
    """Per-layer metrics of the median traced pass, with a readable summary."""
    order = sorted(range(len(traced)), key=traced.__getitem__)
    k = order[(len(order) - 1) // 2]
    first, last = traced_spans[k]
    values = tracing.layer_metrics(tracer.spans, first, last, traced[k])
    values["trace.untraced_pass_s"] = untraced_median
    values["trace.overhead_s"] = traced[k] - untraced_median
    self_sum = sum(v for n, v in values.items() if n in set(tracing.SELF_TIME.values()))
    print("traced passes %s; reporting the median one" % ["%.3f" % t for t in traced])
    print("self times %.6f + unattributed %.6f = %.6f s = traced pass %.6f s" % (
        self_sum, values["trace.unattributed_s"], self_sum + values["trace.unattributed_s"], traced[k]))
    print("cross-check: solve.simplex_s %.6f s vs timings_ms solve_ms %.6f s (the latter also builds the LP object)" % (
        values["solve.simplex_s"], values["solve.simplex_reported_s"]))
    print("bases: lift.cell_ratio = lift.cells / lift.ground_coords = %d / %d; "
          "solve.cut_yield = solve.cuts / solve.separate_calls = %d / %d" % (
              values["lift.cells"], values["lift.ground_coords"],
              values["solve.cuts"], values["solve.separate_calls"]))
    return {name: metric(values[name], tracing.metric_unit(name)) for name in tracing.metric_names()}


if __name__ == "__main__":
    sys.exit(main())
