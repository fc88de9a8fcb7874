#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload RUNS times in each of two sets, A and B, interleaved
(A B, then B A, ...), seed i for the i-th run of both sets. For each
end-to-end metric it prints each set's median and quartiles, the spread
(third minus first quartile, over the median), the metric's bound and the
steadiness target of a third of the bound, and how far set B's median moved
from set A's. The machine-drift probe (env.calib_ms) is summarized beside
them.

The exit code applies the acceptance rule, not the target: it fails when a
spread exceeds the metric's bound (setup_s is exempt from the spread check,
as in that rule) or when set B's median is worse than set A's by more than
the bound (setup_s included). A spread above the target but within the
bound is marked "above target" and does not fail.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --out .bench_out/steady.json
    python3 perfbench/steady.py --workloads ingest-large --runs 5 --sets 1

Exits 1 if any run fails or is incorrect, or by the rule above.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    started = time.time()
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with code {proc.returncode}")
    result = json.loads(lines[-1])
    calib = {}
    for line in lines[:-1]:
        if line.startswith("env.calib_ms"):
            calib = dict(kv.split("=") for kv in line.split()[1:])
    return result, {k: float(v) for k, v in calib.items()}, wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="BENCHMARK.json")
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args()

    with open(args.bench) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = "AB"[:args.sets]

    runs = []
    for i in range(1, args.runs + 1):
        for workload in workloads:
            order = sets if i % 2 else sets[::-1]
            for name in order:
                result, calib, wall = run_once(bench["command"], workload, i, seconds)
                runs.append({"workload": workload, "set": name, "seed": i,
                             "result": result, "calib": calib, "wall_s": wall})
                metrics = {k: round(v["value"], 3) for k, v in result["metrics"].items()}
                print(f"{workload} set {name} seed {i} ({wall:.0f} s): {metrics}",
                      flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)

    ok = all(r["result"]["correct"] and r["result"]["failed"] == 0 for r in runs)
    print("\n| workload | metric | set | median | q1 | q3 | spread | bound | target |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in workloads:
        medians = {}
        for name in sets:
            mine = [r for r in runs if r["workload"] == workload and r["set"] == name]
            for metric, bound in bounds.items():
                s = summarize([r["result"]["metrics"][metric]["value"] for r in mine])
                medians[(metric, name)] = s["median"]
                # setup_s has no spread limit, only the median comparison.
                if metric != "setup_s" and s["spread"] > bound:
                    ok = False
                    mark = " OUTSIDE BOUND"
                elif s["spread"] > bound / 3:
                    mark = " above target"
                else:
                    mark = ""
                print(f"| {workload} | {metric} | {name} | {s['median']:.4g} | "
                      f"{s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f}{mark} | "
                      f"{bound} | {bound / 3:.3f} |")
            for key in ("start", "end"):
                s = summarize([r["calib"][key] for r in mine])
                print(f"| {workload} | env.calib_ms.{key} | {name} | {s['median']:.4g} | "
                      f"{s['q1']:.4g} | {s['q3']:.4g} | {s['spread']:.3f} | | |")
            walls = [r["wall_s"] for r in mine]
            print(f"| {workload} | wall_s | {name} | {statistics.median(walls):.4g} | "
                  f"| | | | | |")
        if len(sets) == 2:
            for metric, bound in bounds.items():
                a, b = medians[(metric, "A")], medians[(metric, "B")]
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == metric)
                worse = (b - a) / a if better == "lower" else (a - b) / a
                flag = "ok" if worse <= bound else "WORSE THAN BOUND"
                if worse > bound:
                    ok = False
                print(f"{workload} {metric}: B vs A {100 * (b - a) / a:+.2f}% ({flag})")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
