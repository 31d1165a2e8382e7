"""The output checks catch wrong answers, and the runner keeps its output contract."""
import json
import os
import shutil
import subprocess
import sys

import inputs
import workloads

BENCH = os.path.dirname(os.path.abspath(inputs.__file__))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(BENCH, "pinned.json"), encoding="utf-8") as fh:
    PINNED = json.load(fh)


def test_classify_catches_a_wrong_stratum():
    w = workloads.Classify(0, "4x4")
    w.run()
    assert w.check(PINNED)["failed"] == 0
    leaf, *rest = w.results[7]
    w.results[7] = (w.results[8][0], *rest)
    assert w.check(PINNED)["failed"] > 0


def test_classify_checks_unpinned_seeds():
    w = workloads.Classify(5, "4x4")
    w.run()
    assert w.check(PINNED)["failed"] == 0
    leaf, dbl, own, closure, prev = w.results[9]
    w.results[9] = (leaf, dbl, own, not closure, prev)
    assert w.check(PINNED)["failed"] == 1


def test_strata_catches_a_wrong_verdict():
    w = workloads.Strata(5, "light")
    w.run()
    assert w.check(PINNED)["failed"] == 0
    k = next(i for i, r in enumerate(w.results) if r[0] == "nonempty")
    kind, argv, code, out, given = w.results[k]
    flipped = json.dumps({**json.loads(out), "nonempty": not json.loads(out)["nonempty"]})
    w.results[k] = (kind, argv, code, flipped, given)
    assert w.check(PINNED)["failed"] >= 1


def test_strata_catches_a_failed_command():
    w = workloads.Strata(0, "light")
    w.run()
    assert w.check(PINNED)["failed"] == 0
    kind, argv, code, out, given = w.results[-1]
    w.results[-1] = (kind, argv, 1, out, given)
    assert w.check(PINNED)["failed"] >= 1


def test_verify_catches_a_failed_check():
    w = workloads.Verify(3, "thm42_equiv")
    w.run()
    assert w.check(PINNED)["failed"] == 0
    w.report.failed += 1
    w.report.passed -= 1
    assert w.check(PINNED)["failed"] == 1


def _bench(args, cwd, *flags):
    return subprocess.run([sys.executable, *flags, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_refuses_optimized_interpreter():
    proc = _bench(["--workload", "classify", "--seconds", "1"], ROOT, "-O")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "classify", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line():
    proc = _bench(["--workload", "classify", "--seed", "2", "--seconds", "1",
                   "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    meta = json.loads(proc.stdout.splitlines()[-2])["meta"]
    assert meta["seed"] == 2 and meta["nproc"] and meta["python"]
    assert meta["ops"]["classify"]["per_cycle"] == sum(c for _, _, c in inputs.CLASSIFY_SHAPES)
