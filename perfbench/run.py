"""leaf-atlas benchmark runner.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload classify|strata|verify|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Load comes from this one process, closed-loop: it starts one pass at a time,
each in a fresh interpreter (``perfbench/worker.py``), so the package's
caches (``harness._leaves``, ``leaves._leaf_targets``,
``echelon._REP_CACHE``) start cold as they do for every CLI user.  A
workload is split into parts (a matrix shape, a heavy CLI command, a
campaign); each pass runs one part, and a run cycles through the parts until
``--seconds`` have gone by (at least ``MIN_CYCLES`` cycles).  Every pass of a
part does the same seeded work.

``wall_s`` is the sum over parts of the part's median pass.  On a shared
machine the same work can take from 0.6 to twice that, in slow spells
lasting from seconds to many minutes, which no statistic over one run can
remove.  So each pass also times a fixed reference loop just before and
after its timed section, and ``wall_ref`` is the sum over parts of the
median ratio of the pass to that loop: the wall time in units of the
reference loop, which slowdowns stretch alike.  ``setup_s`` and
``peak_rss_mb`` are medians over passes; latencies are percentiles of the
pooled operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead.  Every pass checks the program's outputs; a mismatch counts
as failed operations.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and the metrics named in
``BENCHMARK.json``; the line before it records the machine and interpreter.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = tuple(inputs.PARTS)
MIN_CYCLES = 3
PASS_TIMEOUT_S = 60
HASH_SEED = "0"

END_TO_END_UNITS = {
    "wall_s": "s", "wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
    "classify_4x4_p50_ms": "ms", "classify_4x4_p99_ms": "ms",
    "classify_10x10_p50_ms": "ms", "classify_10x10_p99_ms": "ms",
    "cli_p50_ms": "ms", "cli_p99_ms": "ms",
    "checks_per_s": "1/s", "skip_frac": "ratio",
}


class PassError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio"


def run_pass(workload: str, part: str, seed: int, trace: int) -> dict:
    """One worker process; returns its report plus ``setup_s``."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--workload", workload, "--part", part,
             "--seed", str(seed), "--trace", str(trace)],
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload}/{part} pass exceeded {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise PassError(f"{workload}/{part} pass exited {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def run_passes(workload: str, seed: int, seconds: float, trace: int):
    """Part -> untraced passes, and part -> traced passes (empty unless ``trace``)."""
    parts = inputs.PARTS[workload]
    untraced = {p: [] for p in parts}
    traced = {p: [] for p in parts}
    start = time.perf_counter()
    cycles = 0
    while True:
        for part in parts:
            untraced[part].append(run_pass(workload, part, seed, 0))
            if trace:
                traced[part].append(run_pass(workload, part, seed, 1))
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= MIN_CYCLES and elapsed + elapsed / cycles > seconds:
            return untraced, traced


def quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (1..99), interpolated."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pooled_latencies(passes: list[dict]) -> list[float]:
    return [v for p in passes for v in p["timed"]["latencies_ms"]]


def part_sum(by_part: dict[str, list[dict]], ref: bool = False) -> float:
    """Sum over parts of the median pass wall time, or its ratio to the reference loop."""
    return sum(statistics.median(p["timed"]["wall_s"] / (p["probe_s"] if ref else 1)
                                 for p in passes)
               for passes in by_part.values())


def end_to_end(workload: str, untraced: dict[str, list[dict]],
               attempted: int, failed: int) -> dict:
    """Metric name -> (value, sample count)."""
    everything = [p for passes in untraced.values() for p in passes]
    cycles = min(len(passes) for passes in untraced.values())
    wall = part_sum(untraced)
    out = {
        "wall_s": (wall, cycles),
        "wall_ref": (part_sum(untraced, ref=True), cycles),
        "setup_s": (statistics.median(p["setup_s"] for p in everything), len(everything)),
        "peak_rss_mb": (max(statistics.median(p["peak_rss_mb"] for p in passes)
                            for passes in untraced.values()), cycles),
        "fail_frac": (failed / attempted, attempted),
    }
    if workload == "classify":
        for part, passes in untraced.items():
            lat = pooled_latencies(passes)
            out[f"classify_{part}_p50_ms"] = (quantile(lat, 50), len(lat))
            out[f"classify_{part}_p99_ms"] = (quantile(lat, 99), len(lat))
    elif workload == "strata":
        lat = pooled_latencies(untraced["light"])
        out["cli_p50_ms"] = (quantile(lat, 50), len(lat))
        out["cli_p99_ms"] = (quantile(lat, 99), len(lat))
    else:
        checks = sum(passes[0]["timed"]["checks"] for passes in untraced.values())
        out["checks_per_s"] = (checks / wall, cycles)
        attempted_checks = sum(p["timed"]["checks"] for p in everything)
        out["skip_frac"] = (sum(p["timed"]["skipped"] for p in everything) / attempted_checks,
                            attempted_checks)
    return out


def per_layer(untraced: dict[str, list[dict]], traced: dict[str, list[dict]]) -> dict:
    """Per-layer metric name -> (value, traced passes per part)."""
    n = min(len(passes) for passes in traced.values())
    raw: dict[str, float] = {}
    for passes in traced.values():
        for name in passes[0]["layers"]:
            raw[name] = raw.get(name, 0) + statistics.median(p["layers"][name] for p in passes)
    out = {name: (value, n) for name, value in tracing.finish(raw).items()}
    out["cli.stdout_bytes"] = (sum(statistics.median(p["timed"].get("stdout_bytes", 0)
                                                     for p in passes)
                                   for passes in traced.values()), n)
    out["trace.overhead_ratio"] = (part_sum(traced, ref=True) / part_sum(untraced, ref=True), n)
    return out


def tally(*by_part: dict[str, list[dict]]) -> tuple[int, int]:
    """
    Attempted and failed operations over all passes.  Every pass of a part
    must give the digests of its first untraced pass; one that does not
    fails whole.
    """
    attempted = failed = 0
    for part, reference in by_part[0].items():
        digests = reference[0]["checks"]["digests"]
        for group in by_part:
            for p in group[part]:
                c = p["checks"]
                attempted += c["attempted"]
                failed += c["attempted"] if c["digests"] != digests else c["failed"]
    return attempted, failed


def git_sha() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    untraced, traced = run_passes(workload, seed, seconds, trace)
    attempted, failed = tally(untraced, traced)
    metrics = end_to_end(workload, untraced, attempted, failed)
    if trace:
        metrics.update(per_layer(untraced, traced))
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "metrics": metrics, "cycles": metrics["wall_s"][1],
            "ops_per_cycle": sum(passes[0]["timed"]["ops"] for passes in untraced.values())}


def print_table(result: dict, trace: int) -> None:
    print(f"workload {result['workload']}: {result['cycles']} cycles over its parts "
          f"{', '.join(inputs.PARTS[result['workload']])}"
          f"{' (untraced and traced)' if trace else ''}, {result['ops_per_cycle']} ops "
          f"per cycle, {result['failed']} of {result['attempted']} ops failed")
    print(f"  {'metric':<48}{'value':>16}  {'unit':<6}{'n':>7}")
    for name, (value, n) in result["metrics"].items():
        unit = END_TO_END_UNITS.get(name) or layer_unit(name)
        print(f"  {name:<48}{value:>16.6g}  {unit:<6}{n:>7}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: refusing to run under -O: it strips the assert-borne invariants "
              "of sigma, double_bruhat and leaves, so it would measure another program",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "leaf_atlas", "__init__.py")):
        print("error: run from the root of a leaf-atlas checkout (src/leaf_atlas not found)",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(w, args.seed, args.seconds, args.trace) for w in names]
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print_table(result, args.trace)

    prefix = len(results) > 1
    metrics = {}
    for result in results:
        for name, unit in wanted.items():
            value, _ = result["metrics"][name]
            metrics[f"{result['workload']}.{name}" if prefix else name] = {
                "value": value, "unit": unit}
    meta = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "flags": {f: getattr(sys.flags, f) for f in
                  ("optimize", "dont_write_bytecode", "hash_randomization", "isolated")},
        "pythonhashseed": HASH_SEED, "nproc": os.cpu_count(), "machine": platform.machine(),
        "git_sha": git_sha(), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "ops": {r["workload"]: {"per_cycle": r["ops_per_cycle"], "cycles": r["cycles"],
                                "attempted": r["attempted"]} for r in results},
    }
    print(json.dumps({"meta": meta}))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
