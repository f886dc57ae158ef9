#!/usr/bin/env python3
"""Steadiness check of the benchmark: repeated runs of the same code.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workload W ...] [--save FILE] [--against FILE]

Runs perfbench/run.py --runs times per workload, each with another seed,
at BENCHMARK.json's run length with tracing off, and prints for every
end-to-end metric the median, the quartiles and the spread (third minus
first quartile, as a share of the median, with Python's
statistics.quantiles(values, n=4)), next to the metric's bound.  A spread
that reaches its bound is marked, setup_s's too.  --save writes the
medians and failed shares to FILE; --against compares this set with such
a file of an earlier set and marks every median that is worse than the
earlier one by more than its bound, and every failed share that differs.
Exits 1 when anything is marked or a run is incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)

    ok = True
    summary = {}
    for w in workloads:
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, check=True)
            walls.append(time.monotonic() - t0)
            results.append(json.loads(proc.stdout.decode().splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        correct = all(r["correct"] for r in results)
        ok = ok and correct and len(shares) == 1
        before = earlier.get(w, {})
        flag = ""
        if before and before["failed_shares"] != shares:
            flag, ok = "  DIFFERS FROM EARLIER SET", False
        print("%s: %d runs, run wall %.1f-%.1f s, correct=%s, failed share "
              "%s%s" % (w, len(results), min(walls), max(walls), correct,
                        shares, flag))
        summary[w] = {"failed_shares": shares, "medians": {}}
        for name, m in metrics.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[w]["medians"][name] = med
            flags = ""
            if spread >= m["bound"]:
                flags, ok = flags + "  SPREAD OUT OF BOUND", False
            old = before.get("medians", {}).get(name)
            change = ""
            if old:
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                change = "  vs earlier %+.2f%% worse" % (100 * worse)
                if worse > m["bound"]:
                    flags, ok = flags + "  MEDIAN OUT OF BOUND", False
            print("  %-16s %-6s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %6.2f%% (bound %g%%)%s%s" % (
                      name, m["unit"], med, q1, q3, 100 * spread,
                      100 * m["bound"], change, flags))
        sys.stdout.flush()
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(summary, fh, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
