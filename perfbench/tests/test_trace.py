"""Trace completeness: one cycle of every workload, untraced and traced.

Every per-layer metric must read nonzero on a workload that the layer table
in ``perfbench/README.md`` says it serves, and tracing must not change any
output.
"""
import json
import os

import pytest

import inputs
import run

SEED = 0

# Layer -> the workloads whose end-to-end metrics it should move.
SERVES = {
    "exact_matrix": ("classify", "verify"),
    "cells": ("classify",),
    "leaves": ("verify",),
    "permutations": ("strata", "verify"),
    "sigma": ("verify", "strata"),
    "double_bruhat": ("verify", "strata"),
    "echelon": ("verify",),
    "harness": ("verify",),
    "cli": ("strata",),
    "trace": ("classify", "strata", "verify"),
}
# Leaves metrics that serve the strata workload rather than verify.
LEAVES_ON_STRATA = ("leaves.LeafIndex.", "leaves.enumerate_leaves.", "leaves.hasse.")

EXPECTED = {
    "exact_matrix.self_s", "exact_matrix.RationalMatrix.calls",
    "exact_matrix.RationalMatrix.self_s", "exact_matrix.rank_profile.calls",
    "exact_matrix.rank_profile.self_s", "exact_matrix.interval_ranks.self_s",
    "exact_matrix.rank.calls",
    "cells.self_s", "cells.classify.calls", "cells.classify.self_s",
    "cells.pp_rank_profile.self_s",
    "leaves.self_s", "leaves.classify_leaf.calls", "leaves.classify_leaf.total_s",
    "leaves.leaf_profile.self_s", "leaves.in_leaf.calls", "leaves.in_leaf.self_s",
    "leaves.LeafIndex.calls", "leaves.LeafIndex.self_s",
    "leaves.enumerate_leaves.total_s", "leaves.hasse.total_s",
    "permutations.self_s", "permutations.bruhat_leq.calls",
    "permutations.bruhat_leq.self_s", "permutations.partial_perms.self_s",
    "sigma.self_s", "sigma.phi_inv.calls", "sigma.phi_to_leaf.calls",
    "sigma.decompose_partial.calls", "sigma.enumerate_sigma.total_s",
    "double_bruhat.self_s", "double_bruhat.is_nonempty.calls",
    "double_bruhat.decompose.calls", "double_bruhat.decompose.total_s",
    "double_bruhat.dense_orbit.total_s",
    "echelon.self_s", "echelon.sample_column_stratum.calls",
    "echelon.sample_column_stratum.total_s",
    "echelon.column_stratum_representative.total_s", "echelon.sample_hit_ratio",
    "echelon.classify_per_sample",
    "harness.self_s", "harness.check_criteria_agreement.total_s",
    "harness.check_dense_orbit.total_s",
    *(f"harness.run.{c[0]}.total_s" for c in inputs.VERIFY_CAMPAIGNS),
    "cli.self_s", "cli.main.calls", "cli.stdout_bytes",
    "trace.overhead_ratio",
}


@pytest.fixture(scope="module")
def cycle():
    """Workload -> (untraced passes by part, traced passes by part, per-layer metrics)."""
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(run.__file__))))
    out = {}
    for workload, parts in inputs.PARTS.items():
        untraced = {p: [run.run_pass(workload, p, SEED, 0)] for p in parts}
        traced = {p: [run.run_pass(workload, p, SEED, 1)] for p in parts}
        layers = {name: value for name, (value, _) in run.per_layer(untraced, traced).items()}
        out[workload] = (untraced, traced, layers)
    return out


def test_every_named_metric_is_reported(cycle):
    for workload, (_, _, layers) in cycle.items():
        assert set(layers) == EXPECTED, workload


def test_every_metric_moves_on_a_workload_it_serves(cycle):
    for name in EXPECTED:
        serves = SERVES[name.split(".")[0]]
        if name.startswith(LEAVES_ON_STRATA):
            serves = ("strata",)
        assert any(cycle[w][2][name] > 0 for w in serves), name


def test_strata_makes_no_rank_computation(cycle):
    layers = cycle["strata"][2]
    assert layers["exact_matrix.rank_profile.calls"] == 0
    assert layers["exact_matrix.self_s"] + layers["cells.self_s"] == 0


def test_classify_time_is_in_the_kernels(cycle):
    _, traced, layers = cycle["classify"]
    wall = run.part_sum(traced)
    assert layers["exact_matrix.self_s"] + layers["cells.self_s"] > 0.5 * wall


def test_tracing_changes_no_output(cycle):
    for workload, (untraced, traced, _) in cycle.items():
        for part in untraced:
            assert (traced[part][0]["checks"]["digests"]
                    == untraced[part][0]["checks"]["digests"]), (workload, part)
        attempted, failed = run.tally(untraced, traced)
        assert attempted > 0 and failed == 0, workload


def test_benchmark_json_names_measured_metrics(cycle):
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for m in spec["per_layer"]:
        assert m["name"] in EXPECTED
        assert m["unit"] == run.layer_unit(m["name"])
    untraced = cycle["classify"][0]
    e2e = run.end_to_end("classify", untraced, 1, 0)
    for m in spec["end_to_end"]:
        assert m["name"] in e2e
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
