"""The classify input generator is the benchmark's own and does not move."""
import hashlib
import json
import os
import subprocess
import sys

import pytest

import inputs

BENCH = os.path.dirname(os.path.abspath(inputs.__file__))

# sha256 of json.dumps(classify_inputs(0, part)); a change here moves the workload.
PINNED_INPUTS = {
    "4x4": "e4c77e3826baab858024effb21ff3d0b7c6734a8a14d01819b3d20c0fc513fec",
    "10x10": "4e81198446a93d1b82de1b001df1a18a93520332558d9d1425712f5d69b041f7",
}


def test_generator_never_imports_leaf_atlas():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import inputs; "
            "[inputs.classify_inputs(0, p) for p in inputs.PARTS['classify']]; "
            "inputs.light_inputs(0); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'leaf_atlas'))")
    out = subprocess.run([sys.executable, "-c", code, BENCH], capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("part", inputs.PARTS["classify"])
def test_fixed_seed_gives_identical_matrices(part):
    first = inputs.classify_inputs(0, part)
    assert first == inputs.classify_inputs(0, part)
    assert first != inputs.classify_inputs(1, part)
    digest = hashlib.sha256(json.dumps(first).encode()).hexdigest()
    assert digest == PINNED_INPUTS[part]


@pytest.mark.parametrize("m, n, count", inputs.CLASSIFY_SHAPES)
def test_rank_rotation(m, n, count):
    items = inputs.rank_rotating_matrices(m, n, count, seed=3)
    assert len(items) == count
    assert [it["t"] for it in items] == [i % (min(m, n) + 1) for i in range(count)]
    for it in items:
        x = it["matrix"]
        assert len(x) == m and all(len(row) == n for row in x)
        rank = inputs.int_rank(x)
        if it["zeroed"] is None:
            assert rank == it["t"]
        else:
            assert rank in (it["t"], it["t"] - 1)
            kind, index = it["zeroed"]
            line = x[index] if kind == "row" else [row[index] for row in x]
            assert not any(line)
    assert {it["zeroed"] is None for it in items} == {True, False}


def test_int_rank():
    assert inputs.int_rank([[1, 2], [2, 4]]) == 1
    assert inputs.int_rank([[0, 0], [0, 0]]) == 0
    assert inputs.int_rank([[0, 1, 2], [1, 0, 3], [1, 1, 5]]) == 2
    assert inputs.int_rank([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 3


def test_reference_helpers():
    assert inputs.bruhat_leq((2, 1, 3), (2, 3, 1))
    assert not inputs.bruhat_leq((3, 1, 2), (2, 3, 1))
    assert not inputs.bruhat_leq((2, 3, 1), (3, 1, 2))
    # The 1x1 strata are (1, 2) and (2, 1).
    assert [w for w in ((1, 2), (2, 1)) if inputs.window_ok(w, 1, 1)] == [(1, 2), (2, 1)]
    assert inputs.dbc_nonempty({}, {})
    assert not inputs.dbc_nonempty({1: 1}, {})
    assert len(inputs.column_patterns(5)) == 31
