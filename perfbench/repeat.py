#!/usr/bin/env python3
"""Repeat-run helper: runs perfbench/run.py over several seeds and prints,
per metric, the median and quartiles of the values, their spread (the
distance between the first and third quartile as a share of the median)
and the bound BENCHMARK.json sets for it.

    python3 perfbench/repeat.py --workload crash-recover --runs 10 \
        --seconds 10 --trace 0 [--seed-base 1] [--out runs.jsonl] \
        [--baseline earlier.jsonl]

Quartiles are Python's statistics.quantiles(values, n=4). With --baseline
it also compares each median against the median of an earlier set written
with --out, as a share of the earlier median, in the metric's "worse"
direction. Run from the repository root; the runs are sequential.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    try:
        result = json.loads(last)
    except ValueError:
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        sys.exit("repeat: %s seed %d failed (exit %d)" %
                 (workload, seed, proc.returncode))
    return result


def summarize(results, spec, trace, baseline):
    defs = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    print("%-32s %14s %14s %14s %8s %7s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    ok = True
    for name, d in defs.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = d.get("bound")
        verdict = ""
        if bound is not None:
            if name == "setup_s":
                verdict = "(spread not gated)"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "OVER BOUND"
                ok = False
            if baseline is not None:
                base = statistics.median(
                    [r["metrics"][name]["value"] for r in baseline])
                worse = (med - base) if d["better"] == "lower" else (base - med)
                shift = worse / abs(base) if base else 0.0
                verdict += "; vs baseline %+.4f" % shift
                if shift > bound:
                    verdict += " WORSE"
                    ok = False
        print("%-32s %14.6g %14.6g %14.6g %8.4f %7s %s" % (
            name, med, q1, q3, spread,
            "-" if bound is None else "%.3f" % bound, verdict))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--baseline")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for i in range(args.runs):
        seed = args.seed_base + i
        results.append(run_once(args.workload, seed, seconds, args.trace))
        print("run %d/%d (seed %d) done" % (i + 1, args.runs, seed),
              file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            for r in results:
                f.write(json.dumps(r) + "\n")
    baseline = None
    if args.baseline:
        with open(args.baseline) as f:
            baseline = [json.loads(line) for line in f if line.strip()]
    print("%s, trace %d, %d runs, %g s each" % (
        args.workload, args.trace, args.runs, seconds))
    sys.exit(0 if summarize(results, spec, args.trace, baseline) else 1)


if __name__ == "__main__":
    main()
