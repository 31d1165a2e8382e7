"""Repeat the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py [--workloads classify,strata,verify] [--runs 10]
                                [--trace 0|1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), for seeds 1..runs, one
run at a time, with ``run_seconds`` from ``BENCHMARK.json``.  For each metric
it prints the median of the runs and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  ``--out`` writes every run's result line and meta line
as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="classify,strata,verify")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            result, meta = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append({"seed": seed, "result": result, "meta": meta})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else None
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
            shown = "n/a" if spread is None else f"{spread:.4f}"
            print(f"  {name:<44} median {median:<14.6g} spread {shown:<8} "
                  f"bound {bounds.get(name)}", flush=True)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
