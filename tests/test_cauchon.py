import random
from fractions import Fraction

import pytest

import leaf_atlas
from leaf_atlas import cauchon, cells, exact_matrix, leaves
from leaf_atlas.cauchon import diagram, restore
from leaf_atlas.exact_matrix import RationalMatrix
from leaf_atlas.leaves import all_leaves, classify_leaf, in_leaf
from perm_oracles import cauchon_diagrams_by_pipes

SMALL = [(m, n) for m in range(1, 5) for n in range(1, 5) if m * n <= 12]


def _whites(C, n):
    return len(C) * n - sum(bin(mask).count("1") for mask in C)


def _signed(rng, k):
    return [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
            for _ in range(k)]


def _positive(rng, k):
    return [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(k)]


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 4) for n in range(1, 5)])
def test_diagram_is_the_brute_force_colouring(m, n):
    by_w = dict(cauchon_diagrams_by_pipes(m, n))
    assert len(by_w) == len(cauchon_diagrams_by_pipes(m, n))  # no two share a w
    assert set(by_w) == {L.w for L in all_leaves(m, n)}
    for w, C in by_w.items():
        assert diagram(w, m, n) == C


@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
def test_diagrams_are_distinct_and_their_white_boxes_count_the_dimension(m, n):
    strata = all_leaves(m, n)
    seen = set()
    for L in strata:
        C = diagram(L.w, m, n)
        seen.add(C)
        assert _whites(C, n) == L.dim
    assert len(seen) == len(strata)


def _restored_members_classify(m, n, strata, rng):
    for L in strata:
        C = diagram(L.w, m, n)
        for params in (_signed(rng, L.dim), _positive(rng, L.dim)):
            x = RationalMatrix(restore(C, n, params))
            assert classify_leaf(x) == L
            assert in_leaf(x, L)


@pytest.mark.parametrize("m, n", SMALL)
def test_restored_members_lie_in_their_stratum(m, n):
    _restored_members_classify(m, n, all_leaves(m, n), random.Random(m * 10 + n))


def test_restored_members_lie_in_their_stratum_at_4x4():
    rng = random.Random(27)
    _restored_members_classify(4, 4, rng.sample(all_leaves(4, 4), 500), rng)


def test_diagram_and_restore_reach_no_classification_or_rank(monkeypatch):
    rng = random.Random(5)
    strata = all_leaves(3, 3)
    params = [_signed(rng, L.dim) for L in strata]
    expected = [restore(diagram(L.w, 3, 3), 3, p) for L, p in zip(strata, params)]

    def unreachable(*args, **kwargs):
        raise RuntimeError("classification or rank reached")

    for namespace in (exact_matrix, cells, leaves, cauchon, leaf_atlas):
        for name in ("classify_leaf", "in_leaf", "bruhat_pivots", "rank_profile"):
            monkeypatch.setattr(namespace, name, unreachable, raising=False)
    assert [restore(diagram(L.w, 3, 3), 3, p) for L, p in zip(strata, params)] == expected
    with pytest.raises(RuntimeError, match="reached"):
        leaves.classify_leaf(RationalMatrix(expected[-1]))


@pytest.mark.parametrize("w, m, n", [
    ((1, 2, 3, 4), 2, 2),     # outside the displacement window
    ((4, 3, 2, 1, 5), 2, 3),  # outside the window of 2x3
    ((2, 1, 3), 2, 2),        # too short for 2x2
    ((1, 1, 2, 3), 2, 2),     # not a permutation
    ((1,), 0, 1),             # no shape: used to give the empty diagram ()
    ((), -1, 1),              # no shape: used to raise IndexError
    ((1, 2), 1, True),        # a bool is not a dimension
])
def test_diagram_rejects_a_permutation_that_indexes_no_stratum(w, m, n):
    with pytest.raises(ValueError):
        diagram(w, m, n)


def test_restore_needs_one_parameter_per_white_box():
    C = diagram(all_leaves(2, 2)[-1].w, 2, 2)
    with pytest.raises(ValueError, match="parameters for"):
        restore(C, 2, [Fraction(1)] * (_whites(C, 2) + 1))
