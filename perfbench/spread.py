#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads paper-cells,serve-mixed --seeds 1-10 \
        --out perfbench/results/set-a.json

For every workload and metric it prints the median, the quartiles and the
spread (interquartile distance as a share of the median), the figure the
bounds in BENCHMARK.json are checked against. With --out it also writes
every run's result line, so a set of runs can be compared with another.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {s} failed ({p.returncode}):\n{p.stderr[-2000:]}")
            lines = p.stdout.strip().splitlines()
            runs[w].append({"seed": s, "run": json.loads(lines[-2]), "result": json.loads(lines[-1])})
            print(w, s, json.dumps(runs[w][-1]["result"]["metrics"]), flush=True)
    summary = {}
    for w, rs in runs.items():
        summary[w] = {}
        for name in rs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            print(f"{w:16s} {name:16s} median {med:12.4f} q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:.4f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
