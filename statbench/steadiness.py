#!/usr/bin/env python3
"""Steadiness report for the statbench benchmark.

    python3 statbench/steadiness.py [--workloads W1,W2] [--seeds 1,2,...]
                                    [--seconds N] [--repeat-seed S]

Runs every workload once per seed (tracing off) and prints, per end-to-end
metric, the median, the quartiles and the spread (q3 - q1) / median, next
to the bound BENCHMARK.json records; a spread above a third of its bound
is flagged (set-up time excepted: only its median is compared between
commits). Then, unless --repeat-seed is 0, it runs each workload twice in
the traced mode on one seed and flags every deterministic figure that did
not repeat exactly: the counters, the sizing-quality figures and the
digest set. Run from the root of a statsize checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys

NONDETERMINISTIC_COUNTS = {"serve.batch_size_mean"}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "statbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    report = {}
    digests = []
    for line in lines[:-1]:
        parts = line.split(" ", 2)
        if parts[0] == "report" and len(parts) == 3:
            report[parts[1]] = parts[2]
        elif parts[0] == "digest":
            digests.append(line)
    return result, report, digests


def deterministic(name, unit):
    return (unit == "count" and name not in NONDETERMINISTIC_COUNTS) or name.endswith("_pct") and name.startswith("core.")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--repeat-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    flagged = 0
    for workload in args.workloads.split(","):
        print(f"running {workload} ...", flush=True)
        values = {}
        for seed in seeds:
            result, _, _ = run(workload, seed, args.seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}")
                flagged += 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {len(seeds)} runs, seeds {args.seeds}")
        for name, vals in values.items():
            print(f"  {name:<20} " + " ".join(f"{v:.4g}" for v in vals))
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- spread above bound/3"
                flagged += 1
            print(f"  {name:<20} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{bound if bound is not None else '-':>6}{flag}")
        if args.repeat_seed:
            runs = [run(workload, args.repeat_seed, args.seconds, 1) for _ in range(2)]
            (r1, rep1, dig1), (r2, rep2, dig2) = runs
            bad = [name for name, m in r1["metrics"].items()
                   if deterministic(name, m["unit"])
                   and m["value"] != r2["metrics"][name]["value"]]
            bad += [name for name in rep1 if name.endswith("_pct") and rep1[name] != rep2.get(name)]
            if dig1 != dig2:
                bad.append("digest set")
            status = "repeat exactly" if not bad else "DO NOT REPEAT: " + ", ".join(bad)
            print(f"  deterministic figures (seed {args.repeat_seed}, traced, twice): {status}")
            flagged += len(bad)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
