#!/usr/bin/env python3
"""Steadiness study: run each workload with several seeds and print, per
end-to-end metric, the median, the quartiles and the spread (the distance
between the quartiles as a share of the median) next to the metric's bound
in BENCHMARK.json.

    python3 perfbench/study.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of a checkout.  A spread at or above a third of its bound
is marked `WIDE`; `setup_s` is exempt from the spread rule, as in the
acceptance check, and is judged by its median alone.  Each run goes through
perfbench/run.py with the run length BENCHMARK.json sets.  The raw result
lines are appended to $CARGO_TARGET_DIR/perfbench-study.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.exit(f"error: {workload} seed {seed} failed (exit {result.returncode})")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    log_path = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
                            "perfbench-study.jsonl")
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, bench["run_seconds"])
            results.append(result)
            with open(log_path, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n## {workload}: {len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)}, failed share(s): {shares}")
        print(f"{'metric':22s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = "" if name == "setup_s" or spread < bound / 3 else "  WIDE"
            print(f"{name:22s} {q1:12.4f} {median:12.4f} {q3:12.4f} {spread:8.4f} {bound:6.2f}{mark}")


if __name__ == "__main__":
    main()
