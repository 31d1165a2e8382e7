"""One cold pass of one workload, in the interpreter that ``run.py`` just started.

Usage: ``python3 perfbench/worker.py --workload NAME --part PART --seed N
--trace 0|1`` from the root of a checkout.  Prints one JSON line: the end of
set-up as ``time.monotonic()``, the timed section's results, the time of the
reference loop around it, the output checks, the peak RSS and, when traced,
the per-layer metrics.  Traced passes also write their spans to
``.perfbench/trace-<workload>-<part>.jsonl``.
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_DIR = ".perfbench"
PROBES = 3  # reference-loop runs before and after the timed section


def reference_loop() -> None:
    """Fixed pure-Python work (tuples, integer arithmetic, a dict, a sort), about 10 ms."""
    d = {}
    for p in itertools.permutations(range(7)):
        d[p] = sum(a * b for a, b in zip(p, p[1:])) % 11
    sorted(d.items(), key=lambda kv: (kv[1], kv[0]))


def probe() -> list[float]:
    """
    Times of ``PROBES`` reference-loop runs, with the collector paused so the
    program's heap does not slow the loop.  The same machine slowdowns that
    stretch a pass stretch these, so a pass over the median probe is a
    steadier measure of the program than the pass alone.
    """
    times = []
    gc.disable()
    try:
        for _ in range(PROBES):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return times


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--part", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if sys.flags.optimize:
        print("refusing to run under -O: it strips the package's assert-borne invariants",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    import workloads  # imports leaf_atlas: part of set-up

    workload = workloads.WORKLOADS[args.workload](args.seed, args.part)
    ready = time.monotonic()  # system-wide clock, comparable with the runner's
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    probes = probe()
    timed = workload.run(tracer) if tracer is not None else workload.run()
    probes += probe()
    with open(os.path.join(HERE, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    out = {"ready": ready, "timed": timed, "probe_s": statistics.median(probes),
           "checks": workload.check(pinned),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.write(os.path.join(TRACE_DIR, f"trace-{args.workload}-{args.part}.jsonl"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
