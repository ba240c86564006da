#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload N times, each with another seed, and prints for each
end-to-end metric the median, the quartiles and the spread (distance
between the quartiles as a share of the median) beside the metric's bound
from BENCHMARK.json. A set of runs can be saved and two saved sets
compared: each metric's median drift in its worse direction, against its
bound, and the share of failed operations.

Run from the root of a checkout:

  python3 perfbench/steady.py --runs 10 --seed0 100 --out set-a.json
  python3 perfbench/steady.py --runs 10 --seed0 200 --out set-b.json
  python3 perfbench/steady.py --compare set-a.json set-b.json

Spreads below a third of the bound are marked "ok"; setup_s is shown but
its spread is not held to its bound (only its median drift is). Each run
line also shows the share of CPU time the machine lost to steal while the
run ran (from /proc/stat, Linux guests), which explains most slow runs on
a shared virtual machine.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def steal_ticks():
    """CPU time stolen from this (virtual) machine so far, in ticks."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]), sum(int(x) for x in fields[1:9])


def run_once(spec, workload, seed, trace=0):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(spec, results):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0.0
    for workload, runs in results.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, correct {correct}, "
              f"failed shares {sorted(shares)}")
        print(f"  {'metric':<14}{'q1':>14}{'median':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}")
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = summary(vals)
            spread = (q3 - q1) / med if med else float("inf")
            ok = spread < m["bound"] / 3
            if name != "setup_s":
                worst = max(worst, spread / m["bound"])
            mark = "ok" if ok else ("(setup)" if name == "setup_s" else "WIDE")
            print(f"  {name:<14}{q1:>14.6g}{med:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.4f}{m['bound']:>7.3f}  {mark}")
    print(f"\nlargest spread / bound (setup_s aside): {worst:.3f} "
          f"(steady when below 0.333)")


def compare(spec, a, b):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    bad = 0
    for workload in a:
        ra, rb = a[workload], b[workload]
        fa = {r["failed"] / r["attempted"] for r in ra}
        fb = {r["failed"] / r["attempted"] for r in rb}
        print(f"\n{workload}: failed shares {sorted(fa)} vs {sorted(fb)}"
              + ("" if fa == fb else "  DIFFER"))
        bad += fa != fb
        for name, m in bounds.items():
            ma = statistics.median(r["metrics"][name]["value"] for r in ra)
            mb = statistics.median(r["metrics"][name]["value"] for r in rb)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = "ok" if worse <= m["bound"] else "WORSE"
            bad += flag != "ok"
            print(f"  {name:<14}{ma:>14.6g}{mb:>14.6g}{change:>+9.4f}"
                  f"{m['bound']:>7.3f}  {flag}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    spec = load_spec()
    if args.compare:
        with open(args.compare[0]) as f:
            a = json.load(f)
        with open(args.compare[1]) as f:
            b = json.load(f)
        sys.exit(1 if compare(spec, a, b) else 0)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    results = {}
    for w in names:
        results[w] = []
        for i in range(args.runs):
            s0, t0 = steal_ticks()
            r = run_once(spec, w, args.seed0 + i)
            s1, t1 = steal_ticks()
            r["steal_share"] = (s1 - s0) / max(1, t1 - t0)
            results[w].append(r)
            print(f"{w} seed {args.seed0 + i}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
                + f" steal={r['steal_share']:.3f}", flush=True)
    report(spec, results)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)


if __name__ == "__main__":
    main()
