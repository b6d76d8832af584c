#!/usr/bin/env python3
"""Builds olive_bench from the sources of this checkout and runs it.

One workload (the form BENCHMARK.json's command takes):

    python3 bench/olive_bench/run.py --workload serve_20k --seed 1 \
        --seconds 30 --trace 0

The last line of standard output is the run's JSON result.  --trace 1 adds
the traced pass and writes its Chrome trace under
.bench_build/olive_bench/traces/.

Every workload (or --workload), each run in its own child process, --reps
times with seeds seed, seed+1, ...; prints each metric's median and
quartiles:

    python3 bench/olive_bench/run.py --seed 1 --reps 5 --json out.json

The build goes to .bench_build/olive_bench (CMake, Release).  A failed build
exits 1 without printing a result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "olive_bench")
BINARY = os.path.join(BUILD, "olive_bench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                break
        else:
            return
    with open(log_path) as log:
        sys.stderr.write(log.read()[-4000:])
    sys.stderr.write("olive_bench: build failed (log: %s)\n" % log_path)
    sys.exit(1)


def trace_path(workload, seed):
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    return os.path.join(traces, "%s-seed%d.json" % (workload, seed))


def command(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0"]
    if trace:
        cmd += ["--trace-out", trace_path(workload, seed)]
    return cmd


def run_one(args):
    proc = subprocess.run(command(args.workload, args.seed, args.seconds,
                                  args.trace),
                          cwd=ROOT)
    return proc.returncode


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(args):
    if args.workload:
        names = [args.workload]
    else:
        names = subprocess.run([BINARY, "--list"], capture_output=True,
                               text=True, check=True).stdout.split()
    summary = {}
    ok = True
    for name in names:
        runs = []
        for rep in range(args.reps):
            seed = args.seed + rep
            proc = subprocess.run(command(name, seed, args.seconds,
                                          args.trace),
                                  cwd=ROOT,
                                  capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print("%s seed %d: exit %d" % (name, seed, proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.append(result)
        if not runs:
            continue
        metrics = {}
        print("== %s (%d runs)" % (name, len(runs)))
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            metrics[metric] = {"unit": first["unit"], "median": med,
                               "q1": q1, "q3": q3, "spread": spread,
                               "values": values}
            print("  %-28s %14.6g %-8s q1 %-12.6g q3 %-12.6g spread %.4f"
                  % (metric, med, first["unit"], q1, q3, spread))
        summary[name] = {"runs": len(runs),
                         "correct": all(r["correct"] for r in runs),
                         "failed": sum(r["failed"] for r in runs),
                         "metrics": metrics}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=1)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--json", help="write the summary here")
    args = parser.parse_args()
    if args.seconds <= 0 or args.reps < 1:
        parser.error("--seconds and --reps must be positive")

    build()
    if args.workload and args.reps == 1 and not args.json:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
